package oneindex

import (
	"math/rand"
	"reflect"
	"testing"

	"structix/internal/cow"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// TestSnapshotHoldsNoRawExtentSlices pins the aliasing-hazard fix
// structurally: snapshot extents live behind extent.View (which exposes
// no mutators), never as raw graph.NodeID slices a caller could write
// into — neither on the Snapshot nor in its walk records.
func TestSnapshotHoldsNoRawExtentSlices(t *testing.T) {
	raw := []reflect.Type{reflect.TypeOf([]graph.NodeID{}), reflect.TypeOf([][]graph.NodeID{})}
	view := reflect.TypeOf(cow.Array[extent.View]{})
	found := false
	for _, st := range []reflect.Type{reflect.TypeOf(Snapshot{}), reflect.TypeOf(walkRec{})} {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			for _, r := range raw {
				if f.Type == r {
					t.Errorf("%s.%s is %s: extents must be stored as extent.View", st.Name(), f.Name, r)
				}
			}
			if f.Type == view {
				found = true
			}
		}
	}
	if !found {
		t.Error("no cow.Array[extent.View] field in the snapshot; the structural guard is checking nothing")
	}
}

// TestSnapshotExtentIsACopy verifies the documented ownership split under
// both codecs: Extent hands out a fresh slice the caller may scribble on,
// while ExtentView/AppendExtent read the shared storage, which must be
// unaffected by such scribbling.
func TestSnapshotExtentIsACopy(t *testing.T) {
	for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
		t.Run(codec.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := gtest.RandomDAG(rng, 300, 150)
			x := Build(g)
			x.SetSnapshotCodec(codec)
			s := x.Freeze(g.Freeze())
			x.EachINode(func(I INodeID) {
				want := x.Extent(I)
				got := s.Extent(I)
				if !equalNodeIDs(got, want) {
					t.Fatalf("inode %d: snapshot extent %v, index %v", I, got, want)
				}
				for i := range got {
					got[i] = -1 // caller owns the copy
				}
				if again := s.Extent(I); !equalNodeIDs(again, want) {
					t.Fatalf("inode %d: mutating Extent()'s result changed the snapshot: %v", I, again)
				}
				if app := s.AppendExtent(nil, I); !equalNodeIDs(app, want) {
					t.Fatalf("inode %d: AppendExtent diverged after caller mutation: %v", I, app)
				}
			})
		})
	}
}
