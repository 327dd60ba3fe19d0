package paillier

// mulxAdx reports whether this CPU has MULX (BMI2) and ADCX/ADOX (ADX),
// the instructions montMulADX is written in: CPUID leaf 7, EBX bits 8
// and 19. Read once, at package init.
var mulxAdx = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

// montMulADX is montMod.mul's amd64 body (mont_amd64.s): z = x·y·R⁻¹
// mod m for n limbs, n a positive multiple of 8. t is scratch of n+1
// limbs; z may alias x or y.
//
//go:noescape
func montMulADX(z, x, y, m, t *uint64, n int, inv uint64)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
