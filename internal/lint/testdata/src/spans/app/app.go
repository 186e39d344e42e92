// Package app exercises span pairing (leakcheck's span resource).
package app

import "fxspan/tel"

// GoodDefer ends its span with the canonical defer.
func GoodDefer(tr *tel.Tracer) {
	sp := tr.Begin("good.defer")
	defer sp.End()
}

// GoodExplicit ends the span inline before the only return.
func GoodExplicit(tr *tel.Tracer) int {
	sp := tr.Begin("good.explicit")
	sp.Annotate("k")
	sp.End()
	return sp.Duration()
}

// GoodFailPath ends the span on both the error and success paths.
func GoodFailPath(tr *tel.Tracer, err error) error {
	sp := tr.Begin("good.failpath")
	if err != nil {
		sp.Fail(err)
		return err
	}
	sp.End()
	return nil
}

// GoodDeferLit closes the span through a deferred closure capturing it.
func GoodDeferLit(tr *tel.Tracer) (err error) {
	sp := tr.Begin("good.deferlit")
	defer func() { sp.Fail(err) }()
	return nil
}

// GoodEscapeReturn hands ownership to the caller.
func GoodEscapeReturn(tr *tel.Tracer) *tel.Span {
	sp := tr.Begin("good.escape.return")
	return sp
}

func consume(sp *tel.Span) { sp.End() }

// GoodEscapeArg hands ownership to the callee.
func GoodEscapeArg(tr *tel.Tracer) {
	sp := tr.Begin("good.escape.arg")
	consume(sp)
}

// GoodEscapeGoroutine hands ownership to a goroutine.
func GoodEscapeGoroutine(tr *tel.Tracer, done chan struct{}) {
	sp := tr.Begin("good.escape.go")
	go func() {
		sp.End()
		close(done)
	}()
}

// holder keeps a span alive across calls.
type holder struct{ sp *tel.Span }

// GoodEscapeField stores the span in a struct for a later End.
func GoodEscapeField(tr *tel.Tracer, h *holder) {
	h.sp = tr.Begin("good.escape.field")
}

// BadNeverEnded starts a span and forgets it: the rule's core case.
func BadNeverEnded(tr *tel.Tracer) {
	sp := tr.Begin("bad.leak")
	sp.Annotate("k")
}

// BadEarlyReturn ends the span on the happy path but leaks it on the
// error return above.
func BadEarlyReturn(tr *tel.Tracer, err error) error {
	sp := tr.Begin("bad.early")
	if err != nil {
		return err
	}
	sp.End()
	return nil
}

// BadChild ends the root but leaks the child.
func BadChild(tr *tel.Tracer) {
	root := tr.Begin("root")
	defer root.End()
	child := root.Child("bad.child")
	child.Annotate("x")
}

// BadFork leaks the forked span.
func BadFork(tr *tel.Tracer) {
	root := tr.Begin("root2")
	defer root.End()
	side := root.Fork("bad.fork")
	side.Annotate("x")
}

// SuppressedLeak shows a justified escape hatch for a known-open span.
func SuppressedLeak(tr *tel.Tracer) {
	//lint:ignore leakcheck deliberately left open to probe the live exporter
	sp := tr.Begin("suppressed.leak")
	sp.Annotate("k")
}
