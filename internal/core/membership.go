package core

import (
	"fmt"
	"sort"
	"strconv"
)

// Membership is the epoch-versioned cluster topology the live control
// plane gossips: which nodes currently serve as masters and which as
// slaves. Every master derives the same ShardMap from the same
// Membership, so shipping this small struct (not the map) is enough to
// converge the whole tier — newest epoch wins, exactly like shard
// summaries.
//
// The compact wire encoding is one line in the l1/s2 idiom:
//
//	m2 <epoch> <nm> <master>*nm <ns> <slave>*ns \n
//
// (m1 lines carried a partition-mode field after the epoch; the prefix
// changed with the field so an old line is refused, not misread.)
type Membership struct {
	Epoch   uint64
	Masters []int // node IDs serving as masters, ascending; master at index i owns shard i
	Slaves  []int // node IDs serving as slaves, ascending
}

// MembershipWireContentType is the MIME type of the compact membership
// encoding.
const MembershipWireContentType = "text/x-msweb-membership"

// membershipWirePrefix introduces (and versions) a membership line.
const membershipWirePrefix = "m2 "

// MaxMembershipNodes caps the node count a membership line may carry so
// a hostile or corrupt line cannot force an unbounded allocation.
const MaxMembershipNodes = 65536

// Validate reports structural errors: empty master tier, duplicate IDs,
// or a node listed in both tiers.
func (mb *Membership) Validate() error {
	if len(mb.Masters) == 0 {
		return fmt.Errorf("core: membership: no masters")
	}
	seen := make(map[int]bool, len(mb.Masters)+len(mb.Slaves))
	for _, ids := range [][]int{mb.Masters, mb.Slaves} {
		for _, id := range ids {
			if id < 0 {
				return fmt.Errorf("core: membership: negative node id %d", id)
			}
			if seen[id] {
				return fmt.Errorf("core: membership: node %d listed twice", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// Normalize sorts both tier lists ascending, the canonical order every
// encoder emits (so two masters computing the same topology produce the
// same bytes).
func (mb *Membership) Normalize() {
	sort.Ints(mb.Masters)
	sort.Ints(mb.Slaves)
}

// ShardMap derives the slave partition this membership implies: one
// shard per master, owned by the master at the same index, at the
// membership's epoch.
func (mb *Membership) ShardMap() (*ShardMap, error) {
	return NewShardMapAt(len(mb.Masters), mb.Slaves, mb.Epoch)
}

// MasterIndex reports the shard index the given node owns, or -1 when
// it is not a master of this membership.
func (mb *Membership) MasterIndex(node int) int {
	for i, id := range mb.Masters {
		if id == node {
			return i
		}
	}
	return -1
}

// Clone deep-copies the membership.
func (mb *Membership) Clone() Membership {
	return Membership{
		Epoch:   mb.Epoch,
		Masters: append([]int(nil), mb.Masters...),
		Slaves:  append([]int(nil), mb.Slaves...),
	}
}

// AppendWire appends the compact encoding of mb to b and returns the
// extended slice.
func (mb *Membership) AppendWire(b []byte) []byte {
	b = append(b, membershipWirePrefix...)
	b = strconv.AppendUint(b, mb.Epoch, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(mb.Masters)), 10)
	for _, id := range mb.Masters {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(mb.Slaves)), 10)
	for _, id := range mb.Slaves {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, '\n')
	return b
}

// IsMembershipWire reports whether b starts a membership line.
func IsMembershipWire(b []byte) bool {
	return len(b) >= len(membershipWirePrefix) && string(b[:len(membershipWirePrefix)]) == membershipWirePrefix
}

// ParseMembership decodes a membership line (with or without the
// trailing newline) into dst, reusing dst's slices. Callers treat any
// error as "discard".
func ParseMembership(b []byte, dst *Membership) error {
	if !IsMembershipWire(b) {
		return fmt.Errorf("core: membership wire: missing %q prefix", membershipWirePrefix)
	}
	rest := b[len(membershipWirePrefix):]
	if n := len(rest); n > 0 && rest[n-1] == '\n' {
		rest = rest[:n-1]
	}
	f := shardFields{rest: rest}
	var err error
	if dst.Epoch, err = f.uint64(); err != nil {
		return err
	}
	if dst.Masters, err = parseIDList(&f, dst.Masters); err != nil {
		return err
	}
	if dst.Slaves, err = parseIDList(&f, dst.Slaves); err != nil {
		return err
	}
	if len(f.rest) != 0 {
		return fmt.Errorf("core: membership wire: trailing garbage %q", f.rest)
	}
	return dst.Validate()
}

// parseIDList reads a count-prefixed id list into dst[:0].
func parseIDList(f *shardFields, dst []int) ([]int, error) {
	n, err := f.int()
	if err != nil {
		return dst, err
	}
	if n < 0 || n > MaxMembershipNodes {
		return dst, fmt.Errorf("core: membership wire: node count %d out of range [0,%d]", n, MaxMembershipNodes)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		id, err := f.int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, id)
	}
	return dst, nil
}
