// Package box exercises the immutable rule.
package box

// Box has one immutable field and one ordinary mutable field.
type Box struct {
	ID   uint64 // immutable after construction
	hits int
}

// New writes the field inside a constructor before the value escapes:
// the basic allowed case.
func New(id uint64) *Box {
	b := &Box{}
	b.ID = id
	return b
}

// NewFilled writes in a loop — still pre-escape, still allowed.
func NewFilled(ids []uint64) *Box {
	b := &Box{}
	for _, id := range ids {
		b.ID = id
	}
	return b
}

// NewPublished sends the box to another goroutine mid-construction and
// keeps writing: the write is in a constructor, but after the escape.
func NewPublished(id uint64, out chan<- *Box) *Box {
	b := &Box{ID: id}
	out <- b
	b.ID = id + 1 // finding: written after the channel send published b
	return b
}

// NewAsync writes the field from a goroutine launched by the constructor.
func NewAsync(id uint64) *Box {
	b := &Box{}
	go func() {
		b.ID = id // finding: concurrent with the constructor's caller
	}()
	return b
}

// NewDeferred binds a literal to a local and calls it locally: the closure
// does not publish b, so the write before return stays legal.
func NewDeferred(id uint64) *Box {
	b := &Box{}
	fill := func() { b.ID = id }
	fill()
	return b
}

// Reset writes outside any constructor.
func (b *Box) Reset() {
	b.ID = 0 // finding: Reset does not construct Box
	b.hits = 0
}

// Touch writes only the unannotated field, which is always fine.
func (b *Box) Touch() { b.hits++ }

// Renumber carries a justified suppression.
func (b *Box) Renumber(id uint64) {
	//lint:ignore immutable fixture demonstrates a justified suppression
	b.ID = id
}

// Shelf holds boxes built elsewhere.
type Shelf struct{ boxes []*Box }

// Relabel rewrites a shelved box's field from a method of another type,
// reached through a slice element: no constructor of Box, and the box was
// published when it was shelved.
func (s *Shelf) Relabel(i int, id uint64) {
	b := s.boxes[i]
	b.ID = id
}
