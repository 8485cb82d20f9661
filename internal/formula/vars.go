package formula

import "fmt"

// Vars is a symbol table mapping variable names to the integer indices used
// inside formulas. A single Vars instance is shared by a constraint system,
// its compiled plans and its runtime environments, so an index means the
// same variable everywhere.
type Vars struct {
	names []string
	index map[string]int
}

// NewVars returns an empty symbol table.
func NewVars() *Vars {
	return &Vars{index: map[string]int{}}
}

// MaxVars is the most variables one system can declare: a Term holds its
// literals in 64-bit masks.
const MaxVars = 64

// ID returns the index of name, allocating a fresh one on first use. It
// panics past MaxVars variables; callers taking names from untrusted
// input check Len first.
func (vs *Vars) ID(name string) int {
	if i, ok := vs.index[name]; ok {
		return i
	}
	i := len(vs.names)
	if i >= MaxVars {
		panic("formula: more than 64 variables in one system")
	}
	vs.names = append(vs.names, name)
	vs.index[name] = i
	return i
}

// Lookup returns the index of name without allocating.
//
//boolq:noalloc
func (vs *Vars) Lookup(name string) (int, bool) {
	i, ok := vs.index[name]
	return i, ok
}

// Name returns the name of variable i.
func (vs *Vars) Name(i int) string {
	if i < 0 || i >= len(vs.names) {
		return fmt.Sprintf("x%d", i)
	}
	return vs.names[i]
}

// Len returns the number of declared variables.
func (vs *Vars) Len() int { return len(vs.names) }

// Names returns a copy of the declared names in index order.
func (vs *Vars) Names() []string {
	out := make([]string, len(vs.names))
	copy(out, vs.names)
	return out
}
