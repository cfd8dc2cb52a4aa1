package trace

import "slices"

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
	// sizes lists the distinct file sizes in increasing order and
	// first[k] the lowest Files index of a file of size sizes[k]: the
	// search index Closest reads, built once by NewSPECWebFileSet.
	sizes []int64
	first []int
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
	for i, f := range fs.Files {
		if k, found := slices.BinarySearch(fs.sizes, f.Size); !found {
			fs.sizes = slices.Insert(fs.sizes, k, f.Size)
			fs.first = slices.Insert(fs.first, k, i)
		}
	}
	return fs
}

// Closest returns the file whose size is nearest to want, the mapping the
// paper applies to each logged static fetch. Of two equally near files
// the one earlier in Files wins.
func (fs *SPECWebFileSet) Closest(want int64) SPECFile {
	k, found := slices.BinarySearch(fs.sizes, want)
	switch {
	case found:
		return fs.Files[fs.first[k]]
	case k == 0:
		return fs.Files[fs.first[0]]
	case k == len(fs.sizes):
		return fs.Files[fs.first[k-1]]
	}
	below, above := fs.first[k-1], fs.first[k]
	dBelow, dAbove := want-fs.sizes[k-1], fs.sizes[k]-want
	if dBelow < dAbove || dBelow == dAbove && below < above {
		return fs.Files[below]
	}
	return fs.Files[above]
}
