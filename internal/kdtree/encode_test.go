package kdtree

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ptree"
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

// TestEncodeDecodeRoundTrip: a decoded tree is the encoded one — node
// arrays, derived depths and leaf ids — and encodes back to the same bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, policy := range []Policy{PolicyPASS, PolicyUniform} {
		_, orig, _ := buildTaxi(t, 3, 40, policy)
		b := encodeTree(t, orig)
		got, err := decodeTree(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("policy %d: decoded tree differs from the encoded one", policy)
		}
		if again := encodeTree(t, got); !bytes.Equal(again, b) {
			t.Fatalf("policy %d: re-encoding changed the bytes", policy)
		}
	}
}

// TestDecodeRejectsBadInput: child ranges that do not form one tree under
// the root, and arrays of the wrong length, are errors — never a panic.
func TestDecodeRejectsBadInput(t *testing.T) {
	_, tr, _ := buildTaxi(t, 2, 8, PolicyPASS)
	good := func() *Tree {
		c, err := decodeTree(encodeTree(t, tr))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, mutate := range map[string]func(*Tree){
		"children past the end": func(c *Tree) { c.firstKid[c.root] = int32(len(c.aggs) - 1) },
		"negative child count":  func(c *Tree) { c.numKids[c.root] = -1 },
		"root as a child":       func(c *Tree) { c.firstKid[c.root] = int32(c.root) },
		"child linked twice":    func(c *Tree) { c.firstKid[c.leaves[0]], c.numKids[c.leaves[0]] = 1, 1 },
		"root out of range":     func(c *Tree) { c.root = len(c.aggs) },
		"bounds too short":      func(c *Tree) { c.bounds = c.bounds[:len(c.bounds)-1] },
		"zero dims":             func(c *Tree) { c.dims = 0 },
		"dims past the bounds":  func(c *Tree) { c.dims = len(c.bounds) + 1 },
		"detached cycle": func(c *Tree) {
			// a childless root, and nodes 1 and 2 each other's child
			c.bounds, c.aggs, c.dims, c.root = make([]float64, 6), make([]ptree.Agg, 3), 1, 0
			c.firstKid, c.numKids = []int32{0, 2, 1}, []int32{0, 1, 1}
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
