package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

// FuzzDeltaFrame decodes arbitrary bytes as Peer.Delta decodes a peer's
// body and folds what decodes into a 3-member merger that already holds
// frames from two members. Whatever the bytes, nothing panics, and a Fold
// that returns an error leaves the merger as it was: the same fold count
// and the same export bytes.
func FuzzDeltaFrame(f *testing.F) {
	members := []string{"a", "b", "c"}
	newMerger := func() *Merger {
		return NewMerger(MergerConfig{Members: members, Capacity: 512, Clock: clock.NewSimulated(epoch)})
	}
	m, k := newMerger().Params()
	frame := func(tb testing.TB, node string, gen uint64, m, k uint32, keys ...string) DeltaFrame {
		fl := bloom.NewFilter(m, k)
		for _, key := range keys {
			fl.Add(key)
		}
		body, err := fl.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return DeltaFrame{Node: node, Generation: gen, Epoch: 7, Sketch: body}
	}
	seed := func(fr DeltaFrame) {
		data, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(frame(f, "c", 3, m, k, "/product/p00001"))
	seed(frame(f, "c", 3, 2*m, k+1, "/product/p00001"))
	seed(frame(f, "z", 3, m, k, "/product/p00001"))
	truncated := frame(f, "b", 4, m, k, "/product/p00002")
	truncated.Sketch = truncated.Sketch[:len(truncated.Sketch)/2]
	seed(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr DeltaFrame
		if err := json.Unmarshal(data, &fr); err != nil {
			return
		}
		mg := newMerger()
		for i, node := range members[:2] {
			if err := mg.Fold(frame(t, node, uint64(i+1), m, k, "/held/"+node)); err != nil {
				t.Fatal(err)
			}
		}
		before, err := mg.Export()
		if err != nil {
			t.Fatal(err)
		}
		folds := mg.Stats().Folds
		if mg.Fold(fr) == nil {
			return
		}
		after, err := mg.Export()
		if err != nil {
			t.Fatal(err)
		}
		if got := mg.Stats().Folds; got != folds {
			t.Fatalf("a failed fold moved Folds from %d to %d", folds, got)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("a failed fold changed the export: %d bytes before, %d after", len(before), len(after))
		}
	})
}
