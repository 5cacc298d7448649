package ptree

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/partition"
)

func encodeTree(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	tr.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeTree(b []byte) (*Tree, error) {
	return Decode(binenc.NewReader(bytes.NewReader(b)))
}

// TestEncodeDecodeRoundTrip: a decoded tree is the encoded one, node for
// node — shape, links, leaf ids and aggregates — at any fanout, and
// encodes back to the same bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := dataset.GenUniform(1000, 1, 100, 41)
	for _, fanout := range []int{2, 4} {
		orig, err := BuildFanout(d, partition.EqualDepth(1000, 19), fanout)
		if err != nil {
			t.Fatal(err)
		}
		orig.ApplyInsert(3, 1e6, 0.25) // aggregates and a range no rebuild from leaves could reproduce
		b := encodeTree(t, orig)
		got, err := decodeTree(b)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("fanout %d: decoded tree differs from the encoded one", fanout)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if again := encodeTree(t, got); !bytes.Equal(again, b) {
			t.Fatalf("fanout %d: re-encoding changed the bytes", fanout)
		}
	}
}

// TestDecodeRejectsBadInput: links that do not form one tree under the
// root, and arrays of the wrong length, are errors — never a panic.
func TestDecodeRejectsBadInput(t *testing.T) {
	d := dataset.GenUniform(200, 1, 100, 42)
	tr, err := Build(d, partition.EqualDepth(200, 4))
	if err != nil {
		t.Fatal(err)
	}
	good := func() *Tree {
		c, err := decodeTree(encodeTree(t, tr))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, mutate := range map[string]func(*Tree){
		"child out of range": func(c *Tree) { c.kids[0] = int32(len(c.nodes)) },
		"negative child":     func(c *Tree) { c.kids[0] = -1 },
		"child linked twice": func(c *Tree) { c.kids[1] = c.kids[0] },
		"root as a child":    func(c *Tree) { c.kids[0] = int32(c.root) },
		"bad child offsets":  func(c *Tree) { c.kidOff[1] = int32(len(c.kids) + 1) },
		"root out of range":  func(c *Tree) { c.root = len(c.nodes) },
		"bounds too short":   func(c *Tree) { c.bounds = c.bounds[:1] },
		"no nodes": func(c *Tree) {
			c.nodes, c.bounds, c.aggs, c.kids, c.kidOff, c.root = nil, nil, nil, nil, []int32{0}, 0
		},
		"negative count": func(c *Tree) { c.aggs[0].N = -1 },
		"detached cycle": func(c *Tree) {
			// a childless root, and nodes 1 and 2 each other's child
			c.nodes, c.bounds, c.aggs = make([]node, 3), make([]float64, 6), make([]Agg, 3)
			c.kids, c.kidOff, c.root = []int32{2, 1}, []int32{0, 0, 1, 2}, 0
		},
	} {
		c := good()
		mutate(c)
		if _, err := decodeTree(encodeTree(t, c)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	b := encodeTree(t, tr)
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeTree(b[:cut]); err == nil {
			t.Errorf("decoded a tree truncated at %d of %d bytes", cut, len(b))
		}
	}
}
