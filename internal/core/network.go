package core

// comparator is one gate of the selection network over wires i < j: the
// minimum of the two is left on i and, when both is set, the maximum on
// j. A min-only gate's j is never read again.
type comparator struct {
	i, j int
	both bool
}

// topKNetwork is the data-independent network that leaves the k smallest
// of n wires on wires 0 … min(n, k)−1, in no particular order, as layers
// of gates that share no wire, so each layer is one batch of comparisons.
// It depends on n and k alone.
//
// With k′ = 2^⌈log₂ k⌉ it bitonic-sorts chunks of k′ wires (Batcher,
// "Sorting networks and their applications", 1968; Knuth TAOCP 3 §5.3.4),
// then merges them pairwise up a binary tree, the survivors of a block
// on its first k′ wires. A top-k merge of sorted blocks a and b is one
// layer of min-only gates (aᵢ, b_{k′+1−i}) — the k′ smallest of the two,
// a bitonic sequence left on a — and log₂ k′ half-cleaner layers that
// sort it again. Every gate puts its minimum on the lower wire, so wires
// past n act as +∞ and any gate that touches one is dropped: nothing is
// padded and no sentinel is needed. At the root the merged set is the
// answer, so when k = k′ it is left unsorted; when k < k′ the root sorts
// and its last k′ − k wires go. When n ≤ k there is no gate at all. The
// depth is
//
//	D(n, k) = ½·log k′·(log k′ + 1) + ⌈log₂(n/k′)⌉·(1 + log₂ k′) − [k = k′]·log₂ k′.
func topKNetwork(n, k int) [][]comparator {
	if n <= k {
		return nil
	}
	kp := 1
	for kp < k {
		kp *= 2
	}
	var layers [][]comparator
	var cur []comparator
	gate := func(i, j int, both bool) {
		if j < n {
			cur = append(cur, comparator{i: i, j: j, both: both})
		}
	}
	flush := func() {
		if len(cur) > 0 {
			layers = append(layers, cur)
			cur = nil
		}
	}
	// halfCleaners sorts the bitonic blocks [lo, lo+size) of every lo in
	// los: gates d apart, d halving from size/2 to 1, one layer each.
	halfCleaners := func(los []int, size int) {
		for d := size / 2; d >= 1; d /= 2 {
			for _, lo := range los {
				for s := lo; s < lo+size; s += 2 * d {
					for x := s; x < s+d; x++ {
						gate(x, x+d, true)
					}
				}
			}
			flush()
		}
	}

	// Sort every chunk of k′ wires. Stage size turns the sorted halves of
	// each block of size into one bitonic sequence and sorts both of its
	// halves: a layer of gates mirrored about the block's middle, then
	// half-cleaners within each half.
	var chunks []int
	for lo := 0; lo < n; lo += kp {
		chunks = append(chunks, lo)
	}
	for size := 2; size <= kp; size *= 2 {
		var halves []int
		for _, c := range chunks {
			for s := c; s < c+kp; s += size {
				for x := 0; x < size/2; x++ {
					gate(s+x, s+size-1-x, true)
				}
				halves = append(halves, s, s+size/2)
			}
		}
		flush()
		halfCleaners(halves, size/2)
	}

	// Merge blocks of span wires pairwise, their survivors on the first k′
	// wires of each, until one block holds every wire.
	for span := kp; span < n; span *= 2 {
		var los []int
		for lo := 0; lo+span < n; lo += 2 * span {
			for x := 0; x < kp; x++ {
				gate(lo+x, lo+span+kp-1-x, false)
			}
			los = append(los, lo)
		}
		flush()
		if root := 2*span >= n; !root || k < kp {
			halfCleaners(los, kp)
		}
	}
	return layers
}
