package core

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Compact load wire encoding: the one format a node's load report
// travels in, whether pulled from /load or carried in a frame reply's
// trailer. It is a fixed-field single line,
//
//	l1 <cpu_idle> <disk_avail> <cpu_queue> <disk_queue> <speed>\n
//
// appended and parsed with strconv only — no maps, no reflection, no
// intermediate strings.

// LoadWireContentType is the MIME type of the compact encoding.
const LoadWireContentType = "text/x-msweb-load"

// loadWirePrefix introduces (and versions) a compact load line.
const loadWirePrefix = "l1 "

// AppendWire appends the compact v1 encoding of l to b and returns the
// extended slice. It never allocates when b has capacity (~64 bytes).
func (l Load) AppendWire(b []byte) []byte {
	b = append(b, loadWirePrefix...)
	b = strconv.AppendFloat(b, l.CPUIdle, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, l.DiskAvail, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.CPUQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.DiskQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, l.Speed, 'g', -1, 64)
	b = append(b, '\n')
	return b
}

// ParseLoadWire decodes a compact v1 load line (with or without the
// trailing newline). A line that parses but fails Validate is rejected.
func ParseLoadWire(b []byte) (Load, error) {
	var l Load
	if !bytes.HasPrefix(b, []byte(loadWirePrefix)) {
		return l, fmt.Errorf("core: load wire: missing %q prefix", loadWirePrefix)
	}
	rest := b[len(loadWirePrefix):]
	if n := len(rest); n > 0 && rest[n-1] == '\n' {
		rest = rest[:n-1]
	}
	var err error
	for i := 0; i < 5; i++ {
		// Take the next space-delimited field without allocating.
		j := 0
		for j < len(rest) && rest[j] != ' ' {
			j++
		}
		field := rest[:j]
		if len(field) == 0 {
			return Load{}, fmt.Errorf("core: load wire: missing field %d", i)
		}
		switch i {
		case 0:
			l.CPUIdle, err = strconv.ParseFloat(string(field), 64)
		case 1:
			l.DiskAvail, err = strconv.ParseFloat(string(field), 64)
		case 2:
			l.CPUQueue, err = strconv.Atoi(string(field))
		case 3:
			l.DiskQueue, err = strconv.Atoi(string(field))
		case 4:
			l.Speed, err = strconv.ParseFloat(string(field), 64)
		}
		if err != nil {
			return Load{}, fmt.Errorf("core: load wire: field %d: %v", i, err)
		}
		if j < len(rest) {
			j++
		}
		rest = rest[j:]
	}
	if len(rest) != 0 {
		return Load{}, fmt.Errorf("core: load wire: trailing garbage %q", rest)
	}
	if err := l.Validate(); err != nil {
		return Load{}, err
	}
	return l, nil
}

// Validate accepts exactly the loads a node's resources can report:
// CPUIdle and DiskAvail in [0, 1] (the range of both IdleRatio paths),
// queue populations ≥ 0, and a finite Speed ≥ 0 (0 keeps the
// configured speed). Every decoder of network input applies it, so one
// corrupt report can neither price a node at ~0 (an idle ratio of
// 1e300 passes RSRC's low-end floor) nor hide it from every argmin
// (NaN).
func (l Load) Validate() error {
	switch {
	case !(l.CPUIdle >= 0 && l.CPUIdle <= 1):
		return fmt.Errorf("core: load: cpu idle %v outside [0, 1]", l.CPUIdle)
	case !(l.DiskAvail >= 0 && l.DiskAvail <= 1):
		return fmt.Errorf("core: load: disk avail %v outside [0, 1]", l.DiskAvail)
	case l.CPUQueue < 0 || l.DiskQueue < 0:
		return fmt.Errorf("core: load: negative queue (%d, %d)", l.CPUQueue, l.DiskQueue)
	case !(l.Speed >= 0 && l.Speed <= math.MaxFloat64):
		return fmt.Errorf("core: load: speed %v not finite and non-negative", l.Speed)
	}
	return nil
}

// ApplyReport merges a freshly reported load into the view's slot for
// node id, preserving the previously known Speed when the report omits
// it (Speed <= 0). This is the single merge rule for every report
// source — the master's /load poller and the load trailer of every
// frame reply — so the two paths cannot drift.
func (v *View) ApplyReport(id int, l Load) {
	if id < 0 || id >= len(v.Load) {
		return
	}
	if l.Speed <= 0 {
		l.Speed = v.Load[id].Speed
	}
	v.Load[id] = l
}

// Snapshot returns an independent deep copy of the view's role and load
// slices (the Affinity map is shared; it is read-only after
// construction). The live cluster publishes these behind an atomic
// pointer: readers see either the old or the new snapshot, never a
// half-updated one.
func (v *View) Snapshot() *View {
	return &View{
		Now:      v.Now,
		Masters:  append([]int(nil), v.Masters...),
		Slaves:   append([]int(nil), v.Slaves...),
		Load:     append([]Load(nil), v.Load...),
		Affinity: v.Affinity,
	}
}
