package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// trigPinned is trigGridHash of math.Asin and math.Sin, taken on amd64,
// where the compiler never fuses a multiply into an add and both functions
// run the pure-Go Cephes code sin and asin copy. Equal hashes on every GOARCH
// show the local kernels carry amd64's bits there.
const trigPinned = "5a88d24d76e5c335"

// trigGridN is the number of points of each kernel's grid: a prime, so the
// points have full mantissas rather than a few dyadic bits.
const trigGridN = 100003

// trigGridHash hashes asinF over trigGridN+1 evenly spaced points of
// [-1, 1] and sinF over as many of [-1.99, 1.99], the widest arguments k
// and kInv pass, plus the ends of the branches: ±0, ±1 and 0.7.
func trigGridHash(asinF, sinF func(float64) float64) string {
	h := sha256.New()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	for i := 0; i <= trigGridN; i++ {
		// A quotient, then an add: nothing for the compiler to fuse.
		f := 2 * float64(i) / trigGridN
		put(asinF(f - 1))
		put(sinF(1.99 * (f - 1)))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.7, math.Nextafter(0.7, 1)} {
		put(asinF(x))
		put(sinF(x))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTrigPinned holds sin and asin to the bits of math.Sin and math.Asin
// on amd64, on every GOARCH; on amd64 it checks the constant against the
// standard library too.
func TestTrigPinned(t *testing.T) {
	if got := trigGridHash(asin, sin); got != trigPinned {
		t.Errorf("local kernels hash to %s over the grid, want %s (math.Asin, math.Sin on amd64)", got, trigPinned)
	}
	if runtime.GOARCH == "amd64" {
		if got := trigGridHash(math.Asin, math.Sin); got != trigPinned {
			t.Errorf("math.Asin, math.Sin hash to %s over the grid, want %s", got, trigPinned)
		}
	}
}
