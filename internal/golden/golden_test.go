package golden

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bbox"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/wal"
)

var update = flag.Bool("update", false,
	"rewrite testdata/golden from the naive reference executor")

var kinds = []spatialdb.IndexKind{
	spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree,
	spatialdb.Grid, spatialdb.ZOrderIdx,
}

// variant is one store the corpus runs against: a fixture on one index
// backend.
type variant struct {
	name  string
	store *spatialdb.Store
}

func buildVariants(f *Fixture) []variant {
	vs := make([]variant, 0, len(kinds))
	for _, k := range kinds {
		vs = append(vs, variant{k.String(), BuildStore(f, k)})
	}
	return vs
}

func goldenPath(c Case) string {
	return filepath.Join("testdata", "golden", c.Fixture, c.Name+".txt")
}

// readGolden loads a golden file: '#' lines are commentary, the rest are
// canonical solution lines (already sorted by the writer).
func readGolden(t *testing.T, c Case) []string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(c))
	if err != nil {
		t.Fatalf("golden file missing (run `make golden-update`): %v", err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	return lines
}

func writeGolden(t *testing.T, c Case, set []string) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# fixture: %s\n# query: %s\n# solutions: %d\n",
		c.Fixture, c.Query, len(set))
	for _, l := range set {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	path := goldenPath(c)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diff summarizes a set mismatch for the failure message.
func diff(got, want []string) string {
	gotSet := map[string]bool{}
	for _, l := range got {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	var missing, extra []string
	for _, l := range want {
		if !gotSet[l] {
			missing = append(missing, l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			extra = append(extra, l)
		}
	}
	return fmt.Sprintf("got %d solutions, want %d; missing %v; extra %v",
		len(got), len(want), missing, extra)
}

func equalSets(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// executions runs the query on the store under every planner/executor
// combination and returns the canonical solution set of each, labeled.
func executions(t *testing.T, q *query.Query, store *spatialdb.Store, params map[string]*region.Region) map[string][]string {
	t.Helper()
	ctx := context.Background()
	static, err := query.Compile(q, store)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	adaptive, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params})
	if err != nil {
		t.Fatalf("CompileAdaptive: %v", err)
	}

	out := map[string][]string{}
	run := func(label string, f func() (*query.Result, error)) {
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out[label] = CanonSet(q, res.Solutions)
	}
	run("static/serial", func() (*query.Result, error) {
		return static.RunCtx(ctx, store, params, query.DefaultOptions)
	})
	run("static/noindex", func() (*query.Result, error) {
		return static.RunCtx(ctx, store, params, query.Options{UseExact: true})
	})
	run("static/parallel", func() (*query.Result, error) {
		return static.RunParallelCtx(ctx, store, params, query.DefaultOptions, 4)
	})
	run("adaptive/serial", func() (*query.Result, error) {
		return adaptive.RunCtx(ctx, store, params, query.DefaultOptions)
	})
	run("adaptive/parallel", func() (*query.Result, error) {
		return adaptive.RunParallelCtx(ctx, store, params, query.DefaultOptions, 4)
	})
	// Streaming executor, solutions collected by the yield callback.
	var streamed []query.Solution
	if _, err := static.RunStream(ctx, store, params, query.DefaultOptions, 1,
		func(s query.Solution) bool {
			streamed = append(streamed, s.Clone()) // s is lent for the call only
			return true
		}); err != nil {
		t.Fatalf("static/stream: %v", err)
	}
	out["static/stream"] = CanonSet(q, streamed)
	return out
}

// TestCorpus is the golden-result regression suite: every case's
// solution set, under every backend × executor × planner combination,
// must match the checked-in expectation (which `-update` regenerates
// from the naive cross-product oracle).
func TestCorpus(t *testing.T) {
	fixtures := map[string]*Fixture{}
	variants := map[string][]variant{}
	for _, f := range Fixtures() {
		fixtures[f.Name] = f
		variants[f.Name] = buildVariants(f)
	}

	for _, c := range Cases() {
		c := c
		t.Run(c.Fixture+"/"+c.Name, func(t *testing.T) {
			f := fixtures[c.Fixture]
			q, err := lang.Parse(c.Query)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// The oracle: naive cross-product evaluation, which no
			// planner or index can influence. It runs on the scan store,
			// but any variant would do — naive ignores the index.
			naive, err := query.RunNaiveCtx(context.Background(), q,
				variants[c.Fixture][0].store, f.Params, query.Options{})
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			oracle := CanonSet(q, naive.Solutions)
			if *update {
				writeGolden(t, c, oracle)
			}
			want := readGolden(t, c)
			if !equalSets(oracle, want) {
				t.Fatalf("naive oracle drifted from golden file: %s", diff(oracle, want))
			}
			for _, v := range variants[c.Fixture] {
				for label, got := range executions(t, q, v.store, f.Params) {
					if !equalSets(got, want) {
						t.Errorf("%s/%s: %s", v.name, label, diff(got, want))
					}
				}
			}
		})
	}
}

// TestCorpusAfterWALRecovery ingests each fixture through the durable
// write path, checkpoints, appends a WAL tail, simulates a crash (no
// clean Close), recovers, and requires the recovered store to (a) carry
// layer statistics identical to the live store's and (b) reproduce the
// fixture's golden results under both planners.
func TestCorpusAfterWALRecovery(t *testing.T) {
	for _, f := range Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			dir := t.TempDir()
			opts := wal.DBOptions{
				Kind:               spatialdb.RTree,
				Universe:           f.Universe,
				CheckpointInterval: -1,
				CheckpointBytes:    -1,
			}
			db, err := wal.OpenDB(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			f.Populate(db.Store())
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Two mutations past the checkpoint — recovery must replay
			// them from the WAL, statistics included. Net data effect is
			// zero, so the golden files still apply.
			u := f.Universe
			marker := region.FromBox(bbox.Rect(u.Lo[0], u.Lo[1], u.Lo[0]+1, u.Lo[1]+1))
			db.Store().MustInsert(f.Layers[0], "wal-tail-marker", marker)
			if ok, err := db.Store().Remove(f.Layers[0], "wal-tail-marker"); !ok || err != nil {
				t.Fatalf("remove marker: ok=%v err=%v", ok, err)
			}

			// Crash: reopen the directory without closing db. The default
			// fsync policy is SyncAlways, so every acknowledged mutation
			// is already durable.
			rec, err := wal.OpenDB(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Replayed() < 2 {
				t.Errorf("replayed %d WAL records, want ≥ 2 (the post-checkpoint tail)", rec.Replayed())
			}
			for _, name := range f.Layers {
				live := db.Store().Layer(name).DataStats()
				got := rec.Store().Layer(name).DataStats()
				if !got.Equal(live) {
					t.Errorf("layer %q: recovered statistics differ from the live store's", name)
				}
			}

			for _, c := range FixtureCases(f.Name) {
				q, err := lang.Parse(c.Query)
				if err != nil {
					t.Fatalf("%s: parse: %v", c.Name, err)
				}
				want := readGolden(t, c)
				for label, got := range executions(t, q, rec.Store(), f.Params) {
					if !equalSets(got, want) {
						t.Errorf("%s/%s: %s", c.Name, label, diff(got, want))
					}
				}
			}
		})
	}
}
