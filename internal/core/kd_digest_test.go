package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kdtree"
)

// kdDigestCases are the k-d builds whose saved bytes are pinned: one
// unsplit table (dimension 0 unsorted) and the four range shards of the
// same table as a sharded build makes them (dimension 0 sorted), over the
// three score kinds and both policies, plus an IndexDims prefix and an
// IndexCols subset.
func kdDigestCases() map[string]func() ([]*Synopsis, error) {
	table := func() *dataset.Dataset { return dataset.GenNYCTaxi(12000, 3, 61) }
	shards := func() []*dataset.Dataset {
		d := table()
		return d.SplitByPred(0, []int{d.N() / 4, d.N() / 2, 3 * d.N() / 4})
	}
	build := func(parts []*dataset.Dataset, opts Options) ([]*Synopsis, error) {
		var out []*Synopsis
		for i, p := range parts {
			o := opts
			o.Seed += uint64(i)
			s, err := BuildKD(p, o)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	cases := map[string]func() ([]*Synopsis, error){}
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
		for _, policy := range []kdtree.Policy{kdtree.PolicyPASS, kdtree.PolicyUniform} {
			opts := Options{Partitions: 64, SampleRate: 0.05, Kind: kind, KDPolicy: policy, Seed: 62}
			name := fmt.Sprintf("%v/policy%d", kind, policy)
			cases[name+"/1shard"] = func() ([]*Synopsis, error) { return build([]*dataset.Dataset{table()}, opts) }
			cases[name+"/4shards"] = func() ([]*Synopsis, error) { return build(shards(), opts) }
		}
	}
	cases["IndexDims2/4shards"] = func() ([]*Synopsis, error) {
		return build(shards(), Options{Partitions: 48, SampleRate: 0.05, IndexDims: 2, Seed: 63})
	}
	cases["IndexCols20/1shard"] = func() ([]*Synopsis, error) {
		return build([]*dataset.Dataset{table()}, Options{Partitions: 48, SampleRate: 0.05, Kind: dataset.Avg, IndexCols: []int{2, 0}, Seed: 64})
	}
	return cases
}

// kdDigests are the SHA-256 digests of core.Save for kdDigestCases, one
// per shard, recorded from the builder that kept per-node index lists.
var kdDigests = map[string][]string{
	"AVG/policy0/1shard":    {"b83f7bcad68afa2b4fad4b2bc83628f94c826be1012ede45413ec32115967d57"},
	"AVG/policy0/4shards":   {"26d82649e78a8fa43a7295deac964ed0a528a051a5d77c079f397365e0f1a3ce", "78afa5114e5c9767b707db4898ebfe0ec16c2d7045e5c117ef6f91e3c43eab64", "611b7915d39b674271bf456649a7cf71a14124d79c59ae646ceca3b0cd603aaf", "252c944d77da5bce866cd46e3fae22059fa0c9db8d33df94dd6f1be2031c9e35"},
	"AVG/policy1/1shard":    {"dec97a194b17c6b15ba29698917535bf037fe68e8de47c40e94ab57e5bae66c2"},
	"AVG/policy1/4shards":   {"596b279aec15236c6b83b9af1dadca28edd4b62f2928a221aa14a3400fff407e", "4de3e197add1bf733a1285fe7e1b64736ef348deffc7d6983aa1856eace05e46", "c0932c2e7584d1f4485e04e7ecd26ba335f16ee0f8fbeb1acb23a2894978f900", "13c426772c271c9016d6a6a7e6f2630f68cde506f22b34f45601f9ae9e933bb7"},
	"COUNT/policy0/1shard":  {"e33d1bb2c91db9c9430ad552950ffb63d0174b129426fb37e15bd559770dd64b"},
	"COUNT/policy0/4shards": {"1353155050398f7a30c6a3c2b408cdc9bedb74bea3ab8cafece1547101ecfbe9", "fe40216fbb59de6ce77a598fbeef6ba0c32f31662abdd1a038b20acc59c93dc3", "9c532ac215906335f61676ac904c2113f913c0282197016571a22d51c5fae511", "5d7b78ab85ef3238baf305c58543a61fbb48b8c389f9ca8f6741187737880189"},
	"COUNT/policy1/1shard":  {"dec97a194b17c6b15ba29698917535bf037fe68e8de47c40e94ab57e5bae66c2"},
	"COUNT/policy1/4shards": {"596b279aec15236c6b83b9af1dadca28edd4b62f2928a221aa14a3400fff407e", "4de3e197add1bf733a1285fe7e1b64736ef348deffc7d6983aa1856eace05e46", "c0932c2e7584d1f4485e04e7ecd26ba335f16ee0f8fbeb1acb23a2894978f900", "13c426772c271c9016d6a6a7e6f2630f68cde506f22b34f45601f9ae9e933bb7"},
	"IndexCols20/1shard":    {"f6462adc21ea45309a2f3ee40cd6cee9dad60c19fb0912a6c97518cf6d8c30f1"},
	"IndexDims2/4shards":    {"6979917b2ee6ccbbeb65e815b2790ce5b18f17b0d467495c678cdd0ab8381e93", "e0a94e9dd9e0e94467ef44356446178ff4a05cc6a4f3e1060a8127949400489c", "fbbada37e49a79f94410fa4f067dbf0fa3c6c9abdb2b88bd746084bceeeb1d6f", "cd90493ed06a6b82f0a00d98fcf028fbc207be039b13bba5ffbcbbead5b66051"},
	"SUM/policy0/1shard":    {"e570a790c36b7534c06d50ae50fe4d2eb507eb626751fb88cfe31e462276fec5"},
	"SUM/policy0/4shards":   {"ddec8348ae688d779e93c170ec7261a5e49b0bb29e9f15905817a5a1ed96cd63", "a4a9bc0d19db3fdd620c0bf9d5155e6e85f11712367f8f0c579916572b198234", "3920ce9e328aa9b8330ad069b10bd67d180c9c608e76d7ea963b2aa23c8c81da", "3ab22f9718b633ba8ecd55d928eebf5a7297d776ca14263f7753df62efd4721d"},
	"SUM/policy1/1shard":    {"dec97a194b17c6b15ba29698917535bf037fe68e8de47c40e94ab57e5bae66c2"},
	"SUM/policy1/4shards":   {"596b279aec15236c6b83b9af1dadca28edd4b62f2928a221aa14a3400fff407e", "4de3e197add1bf733a1285fe7e1b64736ef348deffc7d6983aa1856eace05e46", "c0932c2e7584d1f4485e04e7ecd26ba335f16ee0f8fbeb1acb23a2894978f900", "13c426772c271c9016d6a6a7e6f2630f68cde506f22b34f45601f9ae9e933bb7"},
}

// TestKDSaveDigests: k-d builds save the bytes they saved before the
// in-place partition — tree, leaf samples and their order, sketches.
func TestKDSaveDigests(t *testing.T) {
	for name, mk := range kdDigestCases() {
		syns, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, s := range syns {
			sum := sha256.Sum256(saveBytes(t, s))
			got = append(got, hex.EncodeToString(sum[:]))
		}
		if want := kdDigests[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: digests\n\t%q\nwant\n\t%q", name, got, want)
		}
	}
}

// TestBuildKDLeavesInputUnchanged: BuildKD reads its dataset's columns,
// and those it hands the tree as a projection, without writing them.
func TestBuildKDLeavesInputUnchanged(t *testing.T) {
	for _, opts := range []Options{
		{Partitions: 64, SampleRate: 0.05},
		{Partitions: 64, SampleRate: 0.05, IndexDims: 2, KDPolicy: kdtree.PolicyUniform},
		{Partitions: 64, SampleRate: 0.05, IndexCols: []int{2, 1}, Kind: dataset.Avg},
	} {
		d := dataset.GenNYCTaxi(6000, 3, 65)
		before := d.Clone()
		if _, err := BuildKD(d, opts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, before) {
			t.Fatalf("%+v: BuildKD changed its input", opts)
		}
	}
}
