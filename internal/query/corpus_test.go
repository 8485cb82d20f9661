package query_test

import (
	"repro/internal/golden"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/spatialdb"
)

// The golden corpus and the parser import package query, so its in-package
// tests reach the corpus through this hook.
func init() {
	query.GoldenCorpus = func() ([]query.CorpusCase, error) {
		var out []query.CorpusCase
		for _, f := range golden.Fixtures() {
			store := golden.BuildStore(f, spatialdb.RTree)
			for _, c := range golden.FixtureCases(f.Name) {
				q, err := lang.Parse(c.Query)
				if err != nil {
					return nil, err
				}
				out = append(out, query.CorpusCase{Name: f.Name + "/" + c.Name, Query: q, Store: store, Params: f.Params})
			}
		}
		return out, nil
	}
}
