//go:build !amd64

package paillier

// mulxAdx is false off amd64: montMod.mul runs its math/bits body.
const mulxAdx = false

func montMulADX(z, x, y, m, t *uint64, n int, inv uint64) {
	panic("paillier: no assembly Montgomery product on this architecture")
}
