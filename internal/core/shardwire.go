package core

import (
	"bytes"
	"fmt"
	"strconv"
)

// Compact shard-summary wire encoding. A sharded master never ships its
// full per-node view to peers — that would put O(cluster size) bytes
// back on every tick. Instead it publishes a ShardSummary: the shard's
// aggregate load plus the top-k least-loaded node digests, enough for a
// remote master to (a) rank shards as spill targets and (b) hand a
// handful of concrete candidate nodes to the routing stage. The
// encoding is a fixed-prefix single line in the l1 idiom (strconv only,
// no maps, no reflection):
//
//	s2 <shard> <epoch> <at_ns> <nodes> <cpu_idle> <disk_avail> <cpu_q> <disk_q> <idle> <k>
//	   {<node> <cpu_idle> <disk_avail> <cpu_q> <disk_q> <speed>}*k \n
//
// (one line; the digest groups repeat space-separated). <epoch> is the
// sender's shard-map epoch (0 until the map first moves), so gossip
// transports map versions and receivers converge newest-wins across
// membership changes. <at_ns> is the owner's sample timestamp so
// receivers can age summaries without trusting clock skew on the
// transport. Aggregate idle/avail are means over the shard; queues are
// totals; <idle> counts nodes with both queues empty.

// ShardWireContentType is the MIME type of the compact summary encoding.
const ShardWireContentType = "text/x-msweb-shard"

// shardWirePrefix introduces (and versions) a compact summary line.
const shardWirePrefix = "s2 "

// MaxShardDigests caps the digest count a summary may carry (and a
// parser will accept) so a hostile or corrupt line cannot force an
// unbounded allocation.
const MaxShardDigests = 64

// ShardDigest is one candidate node inside a shard summary.
type ShardDigest struct {
	Node int
	Load Load
}

// ShardSummary is the compact cross-shard load view one master
// publishes about its own shard.
type ShardSummary struct {
	Shard     int
	Epoch     uint64 // sender's shard-map epoch
	AtNs      int64  // owner's sample time, UnixNano
	Nodes     int    // shard population behind the aggregates
	CPUIdle   float64
	DiskAvail float64
	CPUQueue  int
	DiskQueue int
	Idle      int // nodes with both queues empty
	Top       []ShardDigest
}

// SummaryWins reports whether a summary stamped (newEpoch, newAt)
// replaces one stamped (oldEpoch, oldAt) under the newest-wins order
// gossip converges by: map epochs dominate, the owner's sample
// timestamp breaks ties within an epoch (equal stamps replace, so a
// re-delivered copy of the same generation is harmless).
func SummaryWins(newEpoch uint64, newAt int64, oldEpoch uint64, oldAt int64) bool {
	if newEpoch != oldEpoch {
		return newEpoch > oldEpoch
	}
	return newAt >= oldAt
}

// RSRCCost reports the aggregate RSRC of the shard at the given CPU
// share — the scalar remote masters rank spill targets by.
func (s *ShardSummary) RSRCCost(w float64) float64 {
	return RSRC(w, s.CPUIdle, s.DiskAvail)
}

// BuildShardSummary computes the summary of one shard into dst, reusing
// dst.Top. ids are the shard's node IDs (indices into loads, which is
// the cluster-sized load array); k caps the digest count. Digests are
// the k least-loaded nodes by RSRC at DefaultW, ascending.
func BuildShardSummary(dst *ShardSummary, shard int, atNs int64, ids []int, loads []Load, k int) {
	dst.Shard = shard
	dst.AtNs = atNs
	dst.Nodes = len(ids)
	dst.CPUIdle, dst.DiskAvail = 0, 0
	dst.CPUQueue, dst.DiskQueue, dst.Idle = 0, 0, 0
	if k > MaxShardDigests {
		k = MaxShardDigests
	}
	dst.Top = dst.Top[:0]
	for _, id := range ids {
		if id < 0 || id >= len(loads) {
			continue
		}
		l := loads[id]
		dst.CPUIdle += l.CPUIdle
		dst.DiskAvail += l.DiskAvail
		dst.CPUQueue += l.CPUQueue
		dst.DiskQueue += l.DiskQueue
		if l.CPUQueue == 0 && l.DiskQueue == 0 {
			dst.Idle++
		}
		if k <= 0 {
			continue
		}
		// Insertion into the ascending top-k slice: fleets keep k small
		// (≤ MaxShardDigests), so the quadratic worst case is bounded.
		cost := nodeRSRC(DefaultW, l)
		pos := len(dst.Top)
		for pos > 0 && cost < nodeRSRC(DefaultW, dst.Top[pos-1].Load) {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(dst.Top) < k {
			dst.Top = append(dst.Top, ShardDigest{})
		}
		copy(dst.Top[pos+1:], dst.Top[pos:])
		dst.Top[pos] = ShardDigest{Node: id, Load: l}
	}
	if n := float64(len(ids)); n > 0 {
		dst.CPUIdle /= n
		dst.DiskAvail /= n
	}
}

// AppendWire appends the compact encoding of s to b and returns the
// extended slice. It never allocates when b has capacity.
func (s *ShardSummary) AppendWire(b []byte) []byte {
	b = append(b, shardWirePrefix...)
	b = strconv.AppendInt(b, int64(s.Shard), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, s.Epoch, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, s.AtNs, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.Nodes), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, s.CPUIdle, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, s.DiskAvail, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.CPUQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.DiskQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.Idle), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(s.Top)), 10)
	for _, d := range s.Top {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d.Node), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, d.Load.CPUIdle, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, d.Load.DiskAvail, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d.Load.CPUQueue), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d.Load.DiskQueue), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, d.Load.Speed, 'g', -1, 64)
	}
	b = append(b, '\n')
	return b
}

// shardFields walks the space-delimited fields of a summary line.
type shardFields struct {
	rest []byte
	n    int
}

func (f *shardFields) next() ([]byte, error) {
	j := 0
	for j < len(f.rest) && f.rest[j] != ' ' {
		j++
	}
	field := f.rest[:j]
	if len(field) == 0 {
		return nil, fmt.Errorf("core: shard wire: missing field %d", f.n)
	}
	if j < len(f.rest) {
		j++
	}
	f.rest = f.rest[j:]
	f.n++
	return field, nil
}

func (f *shardFields) int() (int, error) {
	field, err := f.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(string(field))
	if err != nil {
		return 0, fmt.Errorf("core: shard wire: field %d: %v", f.n-1, err)
	}
	return v, nil
}

func (f *shardFields) int64() (int64, error) {
	field, err := f.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(field), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: shard wire: field %d: %v", f.n-1, err)
	}
	return v, nil
}

func (f *shardFields) uint64() (uint64, error) {
	field, err := f.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(field), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: shard wire: field %d: %v", f.n-1, err)
	}
	return v, nil
}

func (f *shardFields) float() (float64, error) {
	field, err := f.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(field), 64)
	if err != nil {
		return 0, fmt.Errorf("core: shard wire: field %d: %v", f.n-1, err)
	}
	return v, nil
}

// ParseShardSummary decodes a compact summary line (with or without
// the trailing newline) into dst, reusing dst.Top. dst is untouched on
// error paths before the header parses; on a later error it may hold a
// partially filled Top — callers treat any error as "discard". The
// aggregate and every digest must pass Load.Validate.
func ParseShardSummary(b []byte, dst *ShardSummary) error {
	if !bytes.HasPrefix(b, []byte(shardWirePrefix)) {
		return fmt.Errorf("core: shard wire: missing %q prefix", shardWirePrefix)
	}
	rest := b[len(shardWirePrefix):]
	if n := len(rest); n > 0 && rest[n-1] == '\n' {
		rest = rest[:n-1]
	}
	f := shardFields{rest: rest}
	var err error
	if dst.Shard, err = f.int(); err != nil {
		return err
	}
	if dst.Epoch, err = f.uint64(); err != nil {
		return err
	}
	if dst.AtNs, err = f.int64(); err != nil {
		return err
	}
	if dst.Nodes, err = f.int(); err != nil {
		return err
	}
	if dst.CPUIdle, err = f.float(); err != nil {
		return err
	}
	if dst.DiskAvail, err = f.float(); err != nil {
		return err
	}
	if dst.CPUQueue, err = f.int(); err != nil {
		return err
	}
	if dst.DiskQueue, err = f.int(); err != nil {
		return err
	}
	if dst.Idle, err = f.int(); err != nil {
		return err
	}
	k, err := f.int()
	if err != nil {
		return err
	}
	agg := Load{CPUIdle: dst.CPUIdle, DiskAvail: dst.DiskAvail, CPUQueue: dst.CPUQueue, DiskQueue: dst.DiskQueue}
	if err := agg.Validate(); err != nil {
		return err
	}
	if k < 0 || k > MaxShardDigests {
		return fmt.Errorf("core: shard wire: digest count %d out of range [0,%d]", k, MaxShardDigests)
	}
	dst.Top = dst.Top[:0]
	for i := 0; i < k; i++ {
		var d ShardDigest
		if d.Node, err = f.int(); err != nil {
			return err
		}
		if d.Load.CPUIdle, err = f.float(); err != nil {
			return err
		}
		if d.Load.DiskAvail, err = f.float(); err != nil {
			return err
		}
		if d.Load.CPUQueue, err = f.int(); err != nil {
			return err
		}
		if d.Load.DiskQueue, err = f.int(); err != nil {
			return err
		}
		if d.Load.Speed, err = f.float(); err != nil {
			return err
		}
		if err := d.Load.Validate(); err != nil {
			return err
		}
		dst.Top = append(dst.Top, d)
	}
	if len(f.rest) != 0 {
		return fmt.Errorf("core: shard wire: trailing garbage %q", f.rest)
	}
	return nil
}
