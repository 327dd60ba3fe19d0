package core

import (
	"math/bits"
	"testing"
)

// ceilLog2 is ⌈log₂ x⌉ for x ≥ 1: the levels of a tournament over x.
func ceilLog2(x int) int { return bits.Len(uint(x - 1)) }

// networkDepth is D(n, k), the layer count topKNetwork promises for n > k.
func networkDepth(n, k int) int {
	lk := ceilLog2(k) // log₂ k′
	d := lk*(lk+1)/2 + ceilLog2((n+(1<<lk)-1)>>lk)*(1+lk)
	if k == 1<<lk {
		d -= lk
	}
	return d
}

// TestTopKNetworkSelects runs every network with n ≤ 16 on a plaintext
// simulator over all 2ⁿ inputs of zeros and ones — by the 0-1 principle
// that is every input — and checks that the kept wires hold exactly the k
// smallest, that no layer uses a wire twice, that no gate reads a wire a
// min-only gate discarded, and that the depth is D(n, k). The inputs run
// 64 at a time, one per bit of a word, where min is AND and max is OR.
func TestTopKNetworkSelects(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for k := 1; k <= n; k++ {
			layers := topKNetwork(n, k)
			want := 0
			if n > k {
				want = networkDepth(n, k)
			}
			if len(layers) != want {
				t.Errorf("n=%d k=%d: %d layers, want D(n, k) = %d", n, k, len(layers), want)
			}
			dead := make([]bool, n)
			for d, layer := range layers {
				used := make([]bool, n)
				for _, g := range layer {
					if g.i < 0 || g.i >= g.j || g.j >= n {
						t.Fatalf("n=%d k=%d layer %d: gate (%d, %d) outside the wires", n, k, d, g.i, g.j)
					}
					if used[g.i] || used[g.j] {
						t.Errorf("n=%d k=%d layer %d: a wire of (%d, %d) appears twice", n, k, d, g.i, g.j)
					}
					if dead[g.i] || dead[g.j] {
						t.Errorf("n=%d k=%d layer %d: gate (%d, %d) reads a discarded wire", n, k, d, g.i, g.j)
					}
					used[g.i], used[g.j] = true, true
					dead[g.j] = !g.both
				}
			}
			kept := min(n, k)
			for w := 0; w < kept; w++ {
				if dead[w] {
					t.Errorf("n=%d k=%d: kept wire %d was discarded", n, k, w)
				}
			}
			for base := 0; base < 1<<n; base += 64 {
				lanes := min(64, 1<<n-base)
				wires := make([]uint64, n)
				for lane := 0; lane < lanes; lane++ {
					for w := range wires {
						wires[w] |= uint64((base+lane)>>w&1) << lane
					}
				}
				for _, layer := range layers {
					for _, g := range layer {
						a, b := wires[g.i], wires[g.j]
						wires[g.i], wires[g.j] = a&b, a|b
					}
				}
				for lane := 0; lane < lanes; lane++ {
					zeros := n - bits.OnesCount(uint(base+lane))
					keptZeros := 0
					for w := 0; w < kept; w++ {
						keptZeros += int(wires[w]>>lane&1 ^ 1)
					}
					if keptZeros != min(kept, zeros) {
						t.Fatalf("n=%d k=%d input %0*b: kept %d zeros, want %d", n, k, n, base+lane, keptZeros, min(kept, zeros))
					}
				}
			}
		}
	}
}

// TestTopKNetworkDepthAtPaperScale pins the layer count at the paper's
// SkNNm point, n = 2000 and k = 25 (k′ = 32): 15 layers sort the chunks
// and six merge levels take six each, 51 in all, where k rounds of an
// ⌈log₂ n⌉-level tournament took 275.
func TestTopKNetworkDepthAtPaperScale(t *testing.T) {
	if got := len(topKNetwork(2000, 25)); got != 51 || networkDepth(2000, 25) != 51 {
		t.Errorf("D(2000, 25) = %d layers (formula %d), want 51", got, networkDepth(2000, 25))
	}
}

// gateCount is G(n, k) = Σ|layer|, the comparisons one scan's network
// runs: each is one value in every peel round of its layer, so G prices
// C2's work the way D(n, k) prices the round trips.
func gateCount(n, k int) int {
	g := 0
	for _, layer := range topKNetwork(n, k) {
		g += len(layer)
	}
	return g
}

// TestTopKNetworkGateCount pins G at the paper's SkNNm point and at the
// benchmark's two scan shapes: secure_scan's n = 8 and a gateway
// shard's n = 4, both at k = 2. TestCostAtPaperPoint checks that the
// cost model's Gates agree with these counts.
func TestTopKNetworkGateCount(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{2000, 25, 21920},
		{8, 2, 12},
		{4, 2, 4},
	} {
		if got := gateCount(tc.n, tc.k); got != tc.want {
			t.Errorf("G(%d, %d) = %d gates, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}
