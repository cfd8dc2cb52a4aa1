package trace

import (
	"math"
	"slices"
	"testing"
)

func TestFileSetHas40Files(t *testing.T) {
	fs := NewSPECWebFileSet()
	if len(fs.Files) != 40 {
		t.Fatalf("fileset has %d files, want 40", len(fs.Files))
	}
	perClass := map[int]int{}
	for _, f := range fs.Files {
		perClass[f.Class]++
		if f.Size <= 0 {
			t.Fatalf("file %d has size %d", f.ID, f.Size)
		}
	}
	for class := 0; class < 4; class++ {
		if perClass[class] != 10 {
			t.Fatalf("class %d has %d files, want 10", class, perClass[class])
		}
	}
}

func TestFileSetSizeRanges(t *testing.T) {
	fs := NewSPECWebFileSet()
	ranges := [][2]int64{
		{102, 1024},           // ~0.1–0.9 KB
		{1020, 10240},         // ~1–9 KB
		{10200, 102400},       // ~10–90 KB
		{102000, 1024 * 1024}, // ~100–900 KB
	}
	for _, f := range fs.Files {
		lo, hi := ranges[f.Class][0], ranges[f.Class][1]
		if f.Size < lo || f.Size > hi {
			t.Fatalf("class %d file size %d outside [%d, %d]", f.Class, f.Size, lo, hi)
		}
	}
}

// closestLinear is Closest's reference: a scan of Files in order that
// keeps the first file at the least distance.
func closestLinear(fs *SPECWebFileSet, want int64) SPECFile {
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	best := fs.Files[0]
	for _, f := range fs.Files[1:] {
		if abs(f.Size-want) < abs(best.Size-want) {
			best = f
		}
	}
	return best
}

// Closest agrees with the linear scan on every size up to 1 MiB (every
// file lies below it) and on every exact midpoint between adjacent
// sizes, where two files tie and the one earlier in Files must win.
func TestClosest(t *testing.T) {
	fs := NewSPECWebFileSet()
	for want := int64(-1); want <= 1<<20; want++ {
		if got, ref := fs.Closest(want), closestLinear(fs, want); got != ref {
			t.Fatalf("Closest(%d) = file %d (%d bytes), linear scan says file %d (%d bytes)", want, got.ID, got.Size, ref.ID, ref.Size)
		}
	}
	sizes := make([]int64, 0, len(fs.Files))
	for _, f := range fs.Files {
		sizes = append(sizes, f.Size)
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	ties := 0
	for k := 1; k < len(sizes); k++ {
		sum := sizes[k-1] + sizes[k]
		if sum%2 != 0 {
			continue
		}
		ties++
		mid := sum / 2
		below, above := fs.Closest(sizes[k-1]), fs.Closest(sizes[k])
		want := below
		if above.ID < below.ID {
			want = above
		}
		if got := fs.Closest(mid); got != want {
			t.Fatalf("Closest(%d), midway between %d and %d bytes: file %d, want file %d", mid, sizes[k-1], sizes[k], got.ID, want.ID)
		}
	}
	if ties == 0 {
		t.Fatal("no exact midpoint between adjacent sizes: the tie rule went untested")
	}
	// Sizes far outside the fileset map to its smallest and largest file.
	first, last := fs.Closest(0), fs.Closest(1<<20)
	for _, want := range []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40} {
		if got := fs.Closest(want); got != first {
			t.Fatalf("Closest(%d) = file %d, want the smallest, file %d", want, got.ID, first.ID)
		}
	}
	for _, want := range []int64{1 << 40, math.MaxInt64 - 1, math.MaxInt64} {
		if got := fs.Closest(want); got != last {
			t.Fatalf("Closest(%d) = file %d, want the largest, file %d", want, got.ID, last.ID)
		}
	}
}

func TestClosestExactMatch(t *testing.T) {
	fs := NewSPECWebFileSet()
	for _, f := range fs.Files {
		if got := fs.Closest(f.Size); got.Size != f.Size {
			t.Fatalf("Closest(%d) = %d", f.Size, got.Size)
		}
	}
}
