package core

import (
	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// Frozen is an immutable capture of FD-RMS's queryable state at one commit
// point: the answer Q_t, the maintenance stats, and an epoch-pinned view of
// the tuple index. A Frozen shares no state the writer mutates — once
// captured it is safe for unsynchronized concurrent reads while the writer
// keeps applying batches — which makes it the payload of the serving layer's
// generation handles (see rms.Store).
//
// The result points share their coordinate slices with the engine (which
// never mutates point coordinates in place); callers must treat them as
// read-only.
type Frozen struct {
	Result []geom.Point // Q_t, ascending id
	Stats  Stats        // maintenance counters at the capture
	K      int          // rank depth, for regret evaluation against Index
	Index  *kdtree.View // the database at the capture
}

// Freeze captures the current queryable state. Like every other method it
// must be called by the structure's single writer (or synchronized with it);
// the returned capture is then immutable. Cost: O(r) for the answer plus the
// index view's two page-table copies, O(n/pageLen) pointers; the pages
// themselves are shared until the writer next touches them (see
// kdtree.Tree.View).
func (f *FDRMS) Freeze() *Frozen {
	return &Frozen{
		Result: f.Result(),
		Stats:  f.Stats(),
		K:      f.cfg.K,
		Index:  f.engine.TreeView(),
	}
}
