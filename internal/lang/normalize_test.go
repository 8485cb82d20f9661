package lang

import (
	"testing"

	"repro/internal/race"
)

func TestNormalizeCanonical(t *testing.T) {
	a := `find T in towns, R in roads
given C   # the country
where
  T !<= C;
  overlaps( R , T );
  R <= (T | C)`
	b := `find T in towns,R in roads given C where T !<= C;overlaps(R,T);R<=(T|C)`
	na, err := Normalize(a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Normalize(b)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Errorf("normal forms differ:\n  %q\n  %q", na, nb)
	}
	want := `find T in towns, R in roads given C where T !<= C; overlaps(R, T); R <= (T | C)`
	if na != want {
		t.Errorf("Normalize = %q, want %q", na, want)
	}
	// Normalization is idempotent.
	again, err := Normalize(na)
	if err != nil {
		t.Fatal(err)
	}
	if again != na {
		t.Errorf("not idempotent: %q -> %q", na, again)
	}
}

func TestNormalizeDistinguishesQueries(t *testing.T) {
	na, err := Normalize(`find T in towns given C where T <= C`)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Normalize(`find T in towns given C where T !<= C`)
	if err != nil {
		t.Fatal(err)
	}
	if na == nb {
		t.Errorf("distinct queries normalized to the same key %q", na)
	}
}

func TestNormalizeLexError(t *testing.T) {
	if _, err := Normalize(`find T in towns where T $ C`); err == nil {
		t.Error("expected lex error")
	}
}

// TestNormalizeAllocs pins Normalize at one allocation, the canonical
// string, for a 4-variable query_cold-shaped text, written as a client
// might: extra spaces, line breaks and a comment, so the canonical form is
// shorter than the input.
func TestNormalizeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation floors are pinned on the normal build")
	}
	src := `find  T1 in towns,  R2 in roads, B3 in states,  S4 in states
	given C   # the window
	where T1 <= B3;  B3 & R2 != 0; R2 <= S4;
	      T1 & C != 0; R2 & C != 0; B3 != S4`
	want := "find T1 in towns, R2 in roads, B3 in states, S4 in states given C where " +
		"T1 <= B3; B3 & R2 != 0; R2 <= S4; T1 & C != 0; R2 & C != 0; B3 != S4"
	if got, err := Normalize(src); err != nil || got != want {
		t.Fatalf("Normalize = %q, %v; want %q", got, err, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Normalize(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Normalize allocates %v per call, want <= 1", allocs)
	}
}
