package sketch

import "math"

// sin and asin are the scale function's kernels: the standard library's
// pure-Go math.Sin (math/sin.go) and math.Asin (math/asin.go, math/atan.go),
// both from Cephes, restricted to the arguments k and kInv pass and written
// with every product that feeds an add rounded by an explicit conversion.
//
// They exist for the determinism contract. The Go spec lets the compiler
// fuse x*y + z; the arm64, loong64, ppc64le, riscv64 and s390x compilers do,
// inside math as well, so math.Sin's bits depend on the GOARCH. A
// conversion rounds, which forbids the fusion, so these copies give the same
// bits everywhere: amd64's, where the compiler never fuses and both math
// functions run this same Go code. TestTrigPinned holds them to a hash of
// math.Sin and math.Asin over a grid of their domain, taken on amd64;
// scripts/check-fma.sh fails on any fused instruction left in them.

// sinCoef and cosCoef are the Cephes sin and cos polynomials in z² on
// [0, π/4], highest degree first.
var (
	sinCoef = []float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = []float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// horner evaluates the polynomial c (highest degree first) at x as the
// nested ((c0*x + c1)*x + c2)... the Cephes sources write out, rounding each
// product.
func horner(c []float64, x float64) float64 {
	p := c[0]
	for _, k := range c[1:] {
		p = float64(p*x) + k
	}
	return p
}

// sin returns math.Sin(x) for |x| < 2. kInv passes at most
// π/2 + 2π/compression, and NewCompression keeps compression ≥ 20, so the
// Payne–Hanek reduction of large arguments and the Inf and NaN cases are
// left out.
func sin(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	if x == 0 {
		return x // ±0
	}
	sign := false
	if x < 0 {
		x, sign = -x, true
	}
	// The octant of x, mapped to an even one: 0 or 2 below x = 2. The
	// conversion also keeps the riscv64, ppc64le and loong64 compilers from
	// fusing the product into the float-to-uint64 conversion.
	j := uint64(float64(x * (4 / math.Pi)))
	y := float64(j)
	if j&1 == 1 {
		j++
		y++
	}
	z := ((x - float64(y*PI4A)) - float64(y*PI4B)) - float64(y*PI4C) // extended-precision reduction
	zz := z * z
	if j == 2 {
		y = 1.0 - float64(0.5*zz) + float64(zz*zz*horner(cosCoef, zz))
	} else {
		y = z + float64(z*zz*horner(sinCoef, zz))
	}
	if sign {
		y = -y
	}
	return y
}

// asin returns math.Asin(x) for x in [-1, 1], the range k clamps its
// argument to.
func asin(x float64) float64 {
	if x == 0 {
		return x // ±0
	}
	sign := false
	if x < 0 {
		x, sign = -x, true
	}
	temp := math.Sqrt(1 - float64(x*x))
	if x > 0.7 {
		temp = math.Pi/2 - satan(temp/x)
	} else {
		temp = satan(x / temp)
	}
	if sign {
		temp = -temp
	}
	return temp
}

// satan is math's atan on [0, 1.03], the arguments asin passes: below
// tan(3π/8), so the reduction through 1/x is left out.
func satan(x float64) float64 {
	const Morebits = 6.123233995736765886130e-17 // pi/2 = PIO2 + Morebits
	if x <= 0.66 {
		return xatan(x)
	}
	return math.Pi/4 + xatan((x-1)/(x+1)) + 0.5*Morebits
}

// xatanP and xatanQ are the numerator and denominator of xatan's rational
// approximation in x², highest degree first; the denominator is monic.
var (
	xatanP = []float64{
		-8.750608600031904122785e-01,
		-1.615753718733365076637e+01,
		-7.500855792314704667340e+01,
		-1.228866684490136173410e+02,
		-6.485021904942025371773e+01,
	}
	xatanQ = []float64{
		1,
		+2.485846490142306297962e+01,
		+1.650270098316988542046e+02,
		+4.328810604912902668951e+02,
		+4.853903996359136964868e+02,
		+1.945506571482613964425e+02,
	}
)

// xatan evaluates atan(x) for |x| ≤ 0.66.
func xatan(x float64) float64 {
	z := x * x
	z = z * horner(xatanP, z) / horner(xatanQ, z)
	return float64(x*z) + x
}
