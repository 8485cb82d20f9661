package gen

import (
	"bytes"
	"testing"

	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/spatialdb"
)

// streamBytes renders the first requests of every stream for one seed.
func streamBytes(seed uint64) []byte {
	var b bytes.Buffer
	texts := ColdTexts(seed)
	for i := 0; i < 500; i++ {
		b.Write(Hot(seed, i).Body())
		b.Write(Cold(seed, texts, i).Body())
		for c := 0; c < 2; c++ {
			w := IngestOp(seed, c, i)
			b.WriteString(w.Path())
			b.Write(w.Body())
		}
		w := PacedWrite(seed, i)
		b.WriteString(w.Path())
		b.Write(w.Body())
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, make := range map[string]func(uint64) *Dataset{"city": City, "town": Town, "ingest": Ingest} {
		a, b, other := make(7).Digest(), make(7).Digest(), make(8).Digest()
		if a != b {
			t.Errorf("%s: the same seed gave two digests", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same dataset", name)
		}
	}
	if !bytes.Equal(streamBytes(7), streamBytes(7)) {
		t.Error("the same seed gave two request streams")
	}
	if bytes.Equal(streamBytes(7), streamBytes(8)) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
}

func TestColdTextsDistinctAndCompile(t *testing.T) {
	store, err := Town(3).NewStore(spatialdb.RTree)
	if err != nil {
		t.Fatal(err)
	}
	texts := ColdTexts(3)
	if len(texts) != ColdTextCount {
		t.Fatalf("got %d texts, want %d", len(texts), ColdTextCount)
	}
	seen := map[string]bool{}
	for i, ct := range texts {
		norm, err := lang.Normalize(ct.Text)
		if err != nil {
			t.Fatalf("text %d does not lex: %v\n%s", i, err, ct.Text)
		}
		if seen[norm] {
			t.Fatalf("text %d repeats an earlier plan-cache key: %s", i, norm)
		}
		seen[norm] = true
		q, err := lang.Parse(norm)
		if err != nil {
			t.Fatalf("text %d does not parse: %v\n%s", i, err, ct.Text)
		}
		if len(q.Retrieve) != ColdVars {
			t.Fatalf("text %d retrieves %d variables, want %d", i, len(q.Retrieve), ColdVars)
		}
		// One in eight through the planner the server uses (24 compiles
		// each); the rest through the single static compile.
		if i%8 == 0 {
			_, err = query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: Cold(3, texts, i).Params()})
		} else {
			_, err = query.Compile(q, store)
		}
		if err != nil {
			t.Fatalf("text %d does not compile: %v\n%s", i, err, ct.Text)
		}
	}
}

func TestHotTemplatesCompile(t *testing.T) {
	// Compilation needs only the layers to exist.
	store := spatialdb.NewStore(City(1).Universe, spatialdb.RTree)
	for _, name := range []string{"parcels", "roads", "zones"} {
		if _, _, err := store.CreateLayer(name); err != nil {
			t.Fatal(err)
		}
	}
	for i, tpl := range HotTemplates {
		q, err := lang.Parse(tpl.Text)
		if err != nil {
			t.Fatalf("template %d does not parse: %v", i, err)
		}
		if _, err := query.Compile(q, store); err != nil {
			t.Fatalf("template %d does not compile: %v", i, err)
		}
		if tpl.Narrow[1] >= tpl.Wide[0] {
			t.Errorf("template %d: narrow and wide side ranges overlap", i)
		}
	}
}
