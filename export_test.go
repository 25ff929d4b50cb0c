package kpj

// Hooks for the external test package into state the public API does not
// expose.

// LandmarkPages returns ix's landmark row pages (see landmark.Index.Rows).
func LandmarkPages(ix *Index) [][]int32 {
	_, pages := ix.ix.Rows()
	return pages
}

// DirtyMask returns the nodes whose landmark distances a's repair changed.
func DirtyMask(a *Applied) []bool { return a.dirty }
