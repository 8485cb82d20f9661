//go:build race

// Package race reports whether the binary was built with the race
// detector, under which sync.Pool deliberately drops a share of what is
// put into it — so tests that pin pooled-path allocation counts skip
// their floors there.
package race

// Enabled is true in -race builds.
const Enabled = true
