package trace

import (
	"math"
	"slices"
)

// SPECweb96 fileset. The paper replaces every static fetch in its logs
// with the closest-sized file from the 40 representative SPECweb96 files.
// SPECweb96 organizes files in four size classes, accessed with fixed
// probabilities, with files spread across each class's size range:
//
//	class 0:   0.1–0.9 KB  (35% of accesses)
//	class 1:     1–9 KB    (50%)
//	class 2:   10–90 KB    (14%)
//	class 3: 100–900 KB    (1%)
//
// Within a class this implementation uses 10 files at 1x..9x the class
// base size plus the class midpoint, giving the canonical 40 files.

// SPECFile is one file of the fileset.
type SPECFile struct {
	ID    int
	Class int   // size class 0..3
	Size  int64 // bytes
}

// SPECWebFileSet is the 40-file SPECweb96-like fileset.
type SPECWebFileSet struct {
	Files []SPECFile
	// The search index Closest reads, built once by NewSPECWebFileSet.
	// With the distinct file sizes in increasing order, pick[k] is the
	// Files index Closest returns for the k-th of them and top[k] the
	// largest request size it maps to the k-th; the entries from the last
	// size on are MaxInt64. The number of entries below a request size is
	// the rank of its closest file size.
	top  [64]int64
	pick []int
}

// NewSPECWebFileSet constructs the canonical 40-file set.
func NewSPECWebFileSet() *SPECWebFileSet {
	fs := &SPECWebFileSet{}
	id := 0
	for class := 0; class < 4; class++ {
		base := int64(102) // 0.1 KB
		for c := 0; c < class; c++ {
			base *= 10
		}
		for i := 1; i <= 9; i++ {
			fs.Files = append(fs.Files, SPECFile{ID: id, Class: class, Size: base * int64(i)})
			id++
		}
		// The 10th file per class sits at the class midpoint (4.5x),
		// rounding the set out to 40 files.
		fs.Files = append(fs.Files, SPECFile{ID: id, Class: class, Size: base*4 + base/2})
		id++
	}
	var sizes []int64
	for i, f := range fs.Files {
		if k, found := slices.BinarySearch(sizes, f.Size); !found {
			sizes = slices.Insert(sizes, k, f.Size)
			fs.pick = slices.Insert(fs.pick, k, i)
		}
	}
	for k := range fs.top {
		fs.top[k] = math.MaxInt64
	}
	for k := 0; k+1 < len(sizes); k++ {
		// A request size maps to the larger of two neighbours when that
		// is nearer, or equally near and earlier in Files.
		lo, hi := sizes[k], sizes[k+1]
		top := (lo + hi) / 2
		if (lo+hi)%2 == 0 && fs.pick[k+1] < fs.pick[k] {
			top--
		}
		fs.top[k] = top
	}
	return fs
}

// Closest returns the file whose size is nearest to want, the mapping the
// paper applies to each logged static fetch. Of two equally near files
// the one earlier in Files wins. The search is six fixed, unrolled
// halvings of top: sizes drawn at random make the branches of a general
// binary search, with its exact-match and end cases, hard to predict.
func (fs *SPECWebFileSet) Closest(want int64) SPECFile {
	t := &fs.top
	n := 0
	if t[n+31] < want {
		n += 32
	}
	if t[n+15] < want {
		n += 16
	}
	if t[n+7] < want {
		n += 8
	}
	if t[n+3] < want {
		n += 4
	}
	if t[n+1] < want {
		n += 2
	}
	if t[n] < want {
		n++
	}
	return fs.Files[fs.pick[n]]
}
