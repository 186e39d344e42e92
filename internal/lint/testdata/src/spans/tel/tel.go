// Package tel is a miniature of the real telemetry API: just enough
// surface (Begin/Child/Fork starters, End/Fail enders, benign reads) for
// the span-pairing fixture to type-match against.
package tel

// Tracer hands out spans.
type Tracer struct{ started int }

// New returns a fresh tracer.
func New() *Tracer { return &Tracer{} }

// Span is one timed region.
type Span struct {
	name  string
	ended bool
}

// Begin starts a root span.
func (t *Tracer) Begin(name string, attrs ...string) *Span {
	t.started++
	return &Span{name: name}
}

// Child starts a sub-span on the same track.
func (s *Span) Child(name string, attrs ...string) *Span { return &Span{name: name} }

// Fork starts a sub-span on its own track.
func (s *Span) Fork(name string, attrs ...string) *Span { return &Span{name: name} }

// End closes the span.
func (s *Span) End() { s.ended = true }

// Fail closes the span recording err.
func (s *Span) Fail(err error) { s.ended = true }

// Annotate attaches attributes.
func (s *Span) Annotate(attrs ...string) {}

// Duration reads the span's elapsed time.
func (s *Span) Duration() int { return 0 }
