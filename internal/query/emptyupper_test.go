package query_test

import (
	"fmt"
	"testing"

	"repro/internal/bbox"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// With disjoint windows W and V, P <= W & V (and P <= W; P <= V) leave the
// retrieval step an empty upper bound. The parameter-only ground check
// passes, so the step probes — and since stored regions are never empty,
// the probe must answer without touching the index, on every backend and
// under both compilers.
func TestEmptyUpperBoundProbesNothing(t *testing.T) {
	params := map[string]*region.Region{
		"W": region.FromBox(bbox.Rect(10, 10, 200, 200)),
		"V": region.FromBox(bbox.Rect(500, 500, 700, 700)),
	}
	texts := []string{
		"find P in parcels given W, V where P <= W & V",
		"find P in parcels given W, V where P <= W; P <= V",
	}
	for _, kind := range []spatialdb.IndexKind{spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree, spatialdb.Grid, spatialdb.ZOrderIdx} {
		store := spatialdb.NewStore(bbox.Rect(0, 0, 1000, 1000), kind)
		items := make([]spatialdb.BulkItem, 0, 2500)
		for i := range 2500 {
			x, y := float64(i%50)*20, float64(i/50)*20
			items = append(items, spatialdb.BulkItem{Name: fmt.Sprintf("p%d", i), Reg: region.FromBox(bbox.Rect(x+1, y+1, x+19, y+19))})
		}
		if _, err := store.BulkInsert("parcels", items, spatialdb.BulkAtomic); err != nil {
			t.Fatal(err)
		}
		for _, text := range texts {
			q, err := lang.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			static, err := query.Compile(q, store)
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			for name, plan := range map[string]*query.Plan{"static": static, "adaptive": adaptive} {
				res, err := plan.Run(store, params, query.DefaultOptions)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.GroundFailed || st.Solutions != 0 {
					t.Fatalf("%v %s %q: ground failed %v, %d solutions", kind, name, text, st.GroundFailed, st.Solutions)
				}
				if st.DB.Queries == 0 || st.DB.Touched != 0 || st.DB.Scanned != 0 {
					t.Errorf("%v %s %q: probe cost %+v, want a query touching nothing", kind, name, text, st.DB)
				}
			}
		}
	}
}
