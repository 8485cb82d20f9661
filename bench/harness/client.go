package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Client is one benchmark client: its own keep-alive connection pool and
// a response buffer reused across requests. Not safe for concurrent use.
type Client struct {
	hc  *http.Client
	buf bytes.Buffer
}

// NewClient returns a client whose requests give up after timeout.
func NewClient(timeout time.Duration) *Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: timeout}}
}

// Do sends one request and reads the whole response. The returned body
// is valid until the next call.
func (c *Client) Do(method, url string, body []byte) (int, []byte, error) {
	var rd *bytes.Reader
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		rd = bytes.NewReader(body)
		req.Body = readCloser{rd}
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// GetJSON fetches url and decodes a 200 response into v.
func (c *Client) GetJSON(url string, v any) error {
	status, body, err := c.Do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return json.Unmarshal(body, v)
}

// Close drops the client's idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// ServerStats is the part of GET /stats the benchmark reads.
type ServerStats struct {
	Epoch uint64 `json:"epoch"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Queries struct {
		Total  int64 `json:"total"`
		Errors int64 `json:"errors"`
	} `json:"queries"`
	WAL *struct {
		Checkpoints int64 `json:"checkpoints"`
		AppendErrs  int64 `json:"append_errors"`
		Retries     int64 `json:"wal_retries"`
		Replayed    int64 `json:"replayed"`
		Log         struct {
			Appends int64 `json:"appends"`
			Bytes   int64 `json:"appended_bytes"`
			Fsyncs  int64 `json:"fsyncs"`
		} `json:"log"`
	} `json:"wal"`
	Shed *struct {
		Total int64 `json:"total"`
	} `json:"shed"`
	Replication *struct {
		Lag          uint64 `json:"lag"`
		StreamErrors int64  `json:"stream_errors"`
		Retries      int64  `json:"retries"`
	} `json:"replication"`
}

// Stats fetches the server's /stats.
func (p *Proc) Stats(c *Client) (ServerStats, error) {
	var st ServerStats
	err := c.GetJSON(p.URL()+"/stats", &st)
	return st, err
}
