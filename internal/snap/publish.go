package snap

import "structix/internal/extent"

// Publisher is the publication half of a live index, the same for both
// families: the slots dirtied since the last publication, the extent codec
// and the stamp tying a snapshot to the dirty set. A family Marks every
// slot whose readers' view its maintenance changes and publishes with its
// own Header and Fill.
//
// Every snapshot carries its publisher's identity and the generation it was
// published at. The generation advances when a publication consumes a
// non-empty dirty set and on a codec switch, so a snapshot of the current
// generation holds exactly the state the dirty set is relative to. Only
// such a prev is patched; any other — an older chain link, another index's
// snapshot, one frozen under the old codec — gets a full freeze.
//
// The zero value is ready to use. It tracks nothing until it first
// publishes: before then there is no snapshot to patch.
type Publisher struct {
	id     *byte // identity, allocated by the first publication
	gen    uint64
	marked []bool // by slot: listed in slots
	slots  []ID
	codec  extent.Codec
}

// Mark records that what readers see of slot i — label, extent, successor
// list or liveness — changed since the last publication.
func (p *Publisher) Mark(i ID) {
	if p.id == nil {
		return
	}
	if int(i) >= len(p.marked) {
		p.marked = append(p.marked, make([]bool, int(i)+1-len(p.marked))...)
	}
	if !p.marked[i] {
		p.marked[i] = true
		p.slots = append(p.slots, i)
	}
}

// SetCodec selects the extent codec later publications freeze into. A
// switch starts a new generation, so the next publication re-encodes every
// extent instead of sharing old-codec views.
func (p *Publisher) SetCodec(c extent.Codec) {
	if p.codec != c {
		p.codec = c
		p.gen++
	}
}

// Codec returns the codec publications currently freeze into.
func (p *Publisher) Codec() extent.Codec { return p.codec }

// Patches reports whether Publish would patch prev rather than freeze
// every slot: prev is this publisher's snapshot of the current generation.
func (p *Publisher) Patches(prev *Snapshot) bool {
	return prev != nil && p.id != nil && prev.pub == p.id && prev.gen == p.gen
}

// Publish builds the snapshot h and fill describe, under the publisher's
// codec, and consumes the dirty set: a patch of prev when prev is this
// publisher's snapshot of the current generation, a full freeze otherwise.
func (p *Publisher) Publish(prev *Snapshot, h Header, fill Fill) *Snapshot {
	if p.id == nil {
		p.id = new(byte) // unique while any snapshot stamped with it lives
	}
	if !p.Patches(prev) {
		prev = nil
	}
	h.Codec = p.codec
	s := patch(prev, h, p.slots, fill)
	if len(p.slots) > 0 {
		p.gen++
		for _, i := range p.slots {
			p.marked[i] = false
		}
		p.slots = p.slots[:0]
	}
	s.pub, s.gen = p.id, p.gen
	return s
}
