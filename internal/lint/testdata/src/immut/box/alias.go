// Aliasing cases for the immutable rule: writes through field pointers
// (local and helper-returned) and escapes through same-package callees
// whose publish summary says they retain their operands.
package box

// registry makes a value visible to everything in the package.
var registry []*Box

// NewAliased initializes through a field pointer before escape: allowed.
func NewAliased(id uint64) *Box {
	b := &Box{}
	p := &b.ID
	*p = id
	return b
}

// NewAliasedLate publishes the box, then writes through an alias of the
// immutable field — the alias does not launder the write.
func NewAliasedLate(id uint64, out chan<- *Box) *Box {
	b := &Box{}
	out <- b
	p := &b.ID
	*p = id // finding: aliased write after the channel send
	return b
}

// idPtr returns an alias of the annotated field; ptrOf wraps it. Their
// summaries say "result aliases operand 0's ID".
func idPtr(b *Box) *uint64 { return &b.ID }

func ptrOf(b *Box) *uint64 { return idPtr(b) }

// NewViaHelperAlias writes through a helper-returned alias pre-escape:
// still construction, still allowed.
func NewViaHelperAlias(id uint64) *Box {
	b := &Box{}
	*idPtr(b) = id
	return b
}

// NewHelperAliasLate hands the box to a goroutine, then writes through a
// (transitively) helper-returned alias.
func NewHelperAliasLate(id uint64) *Box {
	b := &Box{}
	go consume(b)
	p := ptrOf(b)
	*p = id // finding: b escaped to the goroutine first
	return b
}

func consume(b *Box) { _ = b.hits }

// register publishes its argument to package state; registerVia does so
// transitively. note keeps its argument in-frame.
func register(b *Box) { registry = append(registry, b) }

func registerVia(b *Box) { register(b) }

func note(b *Box) { _ = b.hits }

// NewRegistered writes after a same-package call that publishes b: only
// register's summary makes this a finding.
func NewRegistered(id uint64) *Box {
	b := &Box{}
	register(b)
	b.ID = id // finding: register published b
	return b
}

// NewRegisteredVia is the same leak two calls deep.
func NewRegisteredVia(id uint64) *Box {
	b := &Box{}
	registerVia(b)
	b.ID = id // finding: registerVia publishes through register
	return b
}

// NewNoted calls a non-publishing helper and keeps writing: allowed —
// a summary-free analysis flagging all same-package calls breaks here.
func NewNoted(id uint64) *Box {
	b := &Box{}
	note(b)
	b.ID = id
	return b
}

// Publish publishes its receiver.
func (b *Box) Publish() { registry = append(registry, b) }

// NewSelfPublished calls a method that publishes its receiver: the
// method call is the escape point.
func NewSelfPublished(id uint64) *Box {
	b := &Box{}
	b.Publish()
	b.ID = id // finding: Publish published its receiver
	return b
}

// noteDeep keeps its argument in-frame through a self-recursive call: the
// summary solver has to settle the recursive component to "does not
// publish".
func noteDeep(b *Box, n int) {
	if n > 0 {
		noteDeep(b, n-1)
	}
	_ = b.hits
}

// NewNotedDeep calls the recursive non-publishing helper and keeps
// writing: allowed.
func NewNotedDeep(id uint64) *Box {
	b := &Box{}
	noteDeep(b, 3)
	b.ID = id
	return b
}
