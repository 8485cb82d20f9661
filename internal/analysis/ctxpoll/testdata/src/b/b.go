// Fixture for ctxpoll: candidate callbacks must reach poll();
// halted() alone is the near miss that must still be flagged (it never
// samples the context), and helpers/loops have their own shapes.
package b

type ctl struct{ done bool }

func (c *ctl) poll() bool   { return c.done }
func (c *ctl) halted() bool { return c.done }

type layer struct{}

func (l *layer) All(visit func(int) bool)              {}
func (l *layer) Search(spec int, visit func(int) bool) {}

//boolq:cancelloop
func good(l *layer, c *ctl) {
	n := 0
	l.All(func(o int) bool {
		n++
		if n%256 == 0 {
			c.poll()
		}
		return !c.halted()
	})
}

//boolq:cancelloop
func goodViaHelper(l *layer, c *ctl) {
	l.All(func(o int) bool {
		return step(c)
	})
}

func step(c *ctl) bool {
	return !c.poll()
}

//boolq:cancelloop
func badNoPoll(l *layer, c *ctl) {
	n := 0
	l.All(func(o int) bool { // want `candidate callback passed to All never calls execCtl poll`
		n++
		return true
	})
}

// halted() only reads the latched flag; with no poll anywhere the
// cancellation would never be observed.
//
//boolq:cancelloop
func badHaltedOnly(l *layer, c *ctl) {
	l.Search(0, func(o int) bool { // want `candidate callback passed to Search never calls execCtl poll`
		return !c.halted()
	})
}

type frame struct {
	c     *ctl
	visit func(int) bool
}

func (f *frame) consider(o int) bool { return !f.c.poll() }

// A callback built once and stored for later Search calls is held to the
// same rule at the point it is stored.
//
//boolq:cancelloop
func goodStored(f *frame) {
	f.visit = func(o int) bool { return f.consider(o) }
}

//boolq:cancelloop
func badStored(f *frame) {
	f.visit = func(o int) bool { // want `candidate callback stored as visit never calls execCtl poll`
		return !f.c.halted()
	}
}

//boolq:cancelloop
func badSpin(c *ctl) {
	n := 0
	for { // want `unbounded for loop neither polls cancellation nor blocks on a channel`
		n++
	}
}

//boolq:cancelloop
func goodSpinHalted(c *ctl) {
	for {
		if c.halted() {
			return
		}
	}
}

//boolq:cancelloop
func goodSpinChannel(ch chan int) int {
	total := 0
	for {
		v, ok := <-ch
		if !ok {
			return total
		}
		total += v
	}
}

// Out-of-scope functions (no annotation, package not gated) are left
// alone even without a poll.
func unannotated(l *layer) {
	l.All(func(o int) bool { return true })
}
