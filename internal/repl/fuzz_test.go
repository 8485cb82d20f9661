package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// noTransport is a primary that is never reached: the fuzz target feeds
// the stream decoder directly.
type noTransport struct{}

func (noTransport) FetchSnapshot(context.Context) (*Snapshot, error) {
	return nil, errors.New("no primary")
}

func (noTransport) OpenWAL(context.Context, uint64) (RecordStream, error) {
	return nil, errors.New("no primary")
}

// wireLines renders records as a /repl/wal NDJSON body.
func wireLines(tb testing.TB, recs ...WireRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReplRecords feeds arbitrary bytes to the replica's /repl/wal
// envelope decoder (httpStream.Next) and applies every data record it
// accepts the way the tail loop does (Replica.apply), to the end of the
// stream or its first undecodable line. Nothing may panic. A record
// apply accepts either is a duplicate, which changes nothing, or is
// applied: the applied LSN becomes its LSN and the store's epoch moves.
// A record apply rejects leaves the applied LSN and the store's epoch as
// they were.
func FuzzReplRecords(f *testing.F) {
	universe := bbox.Rect(0, 0, 100, 100)
	src := spatialdb.NewStore(universe, spatialdb.RTree)
	var data [][]byte
	src.SetMutationSink(func(m *spatialdb.Mutation) error {
		data = append(data, spatialdb.AppendMutation(nil, m))
		return nil
	})
	src.MustInsert("towns", "a", region.FromBox(bbox.Rect(1, 1, 5, 5)))
	src.MustInsert("towns", "b", region.FromBox(bbox.Rect(10, 10, 20, 30)))
	if _, err := src.Remove("towns", "a"); err != nil {
		f.Fatal(err)
	}
	var recs []WireRecord
	for i, d := range data {
		lsn := uint64(i + 1)
		recs = append(recs, WireRecord{LSN: lsn, CRC: crc32.ChecksumIEEE(d), Data: d, DurableLSN: uint64(len(data))})
	}
	valid := wireLines(f, recs...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])      // truncated mid-record
	f.Add(wireLines(f, recs[1:]...)) // a gap at the start
	f.Add(wireLines(f, recs[0], recs[0], recs[1]))
	bad := recs[0]
	bad.CRC++
	f.Add(wireLines(f, bad))
	f.Add(wireLines(f, WireRecord{LSN: 1, CRC: crc32.ChecksumIEEE([]byte("junk")), Data: []byte("junk")}))
	f.Add(wireLines(f, WireRecord{Heartbeat: true, DurableLSN: 3}, recs[0], WireRecord{End: true, DurableLSN: 3}))
	f.Add(wireLines(f, WireRecord{Error: "primary failed"}))
	f.Add([]byte(`{"lsn":1,"data":"!!","durable_lsn":1}`))
	f.Add([]byte("\x00\xff{garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := New(Options{Transport: noTransport{}, Universe: universe, Kind: spatialdb.RTree})
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		stream := &httpStream{body: io.NopCloser(rd), dec: json.NewDecoder(rd)}
		for {
			rec, err := stream.Next()
			if err != nil || rec.Error != "" || rec.End {
				return
			}
			if rec.Heartbeat {
				continue
			}
			st, applied := r.Store(), r.AppliedLSN()
			epoch := st.Epoch()
			err = r.apply(rec)
			switch {
			case err != nil || rec.LSN <= applied:
				if r.AppliedLSN() != applied || st.Epoch() != epoch {
					t.Fatalf("record %d (err %v) moved applied %d -> %d, epoch %d -> %d",
						rec.LSN, err, applied, r.AppliedLSN(), epoch, st.Epoch())
				}
			case r.AppliedLSN() != rec.LSN || st.Epoch() == epoch:
				t.Fatalf("record %d accepted: applied %d -> %d, epoch %d -> %d",
					rec.LSN, applied, r.AppliedLSN(), epoch, st.Epoch())
			}
		}
	})
}
