#!/bin/sh
# check-fma.sh — fail on floating-point arithmetic whose bits depend on the
# machine: a multiply the compiler fuses into an add, or a call to a
# standard-library function whose result differs between architectures.
#
# The Go spec lets the compiler fuse x*y + z into one instruction that rounds
# once, and the arm64, loong64, ppc64le, riscv64 and s390x compilers do; amd64
# never does. A fused line gives different bits, so different timings, and
# every digest of the golden corpus (internal/exp/testdata/golden) would hold
# on amd64 only. An explicit conversion rounds, and rounding prevents the
# fusion, so a product that feeds an add or a subtraction is written
# float64(x*y) + z, on the statement that forms the product: the fusion
# crosses statements, and the listing reports it on the line of the add.
# The conversion compiles to nothing on amd64.
#
#   fused instructions
#                 for each GOARCH whose compiler fuses, cross-compile every
#                 package of the module with -S (no host or emulator of that
#                 architecture is needed) and list each F(N)MADD/F(N)MSUB
#                 with its file:line. A listing with no instruction of this
#                 module fails too: it would otherwise check nothing;
#   math transcendentals, rand.ExpFloat64/NormFloat64
#                 never in non-test Go: math.Sin and the rest are pure Go,
#                 fused differently per GOARCH, or assembly that picks an FMA
#                 path by CPU feature (math.Exp on amd64). Code that needs
#                 one carries its own kernel, written with explicit
#                 conversions. Sqrt, Floor, Abs and the bit functions are
#                 exact and allowed.
#
# A deliberate call carries a "// fma:ok — <reason>" marker on the same line.
# Test files are exempt.
#
# Usage: scripts/check-fma.sh   (from the repo root; exits 1 on offence)
set -eu

ARCHES="arm64 loong64 ppc64le riscv64 s390x"

moddir=$(go list -m -f '{{.Dir}}')
modpath=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for arch in $ARCHES; do
    if ! GOARCH=$arch go build -gcflags="$modpath/...=-S" ./... 2>"$tmp/$arch.s"; then
        echo "check-fma: GOARCH=$arch build failed:" >&2
        grep -v '^	0x' "$tmp/$arch.s" | head -20 >&2
        status=1
        continue
    fi
    if ! grep -q "^	0x[0-9a-f]* [0-9]* ($moddir/" "$tmp/$arch.s"; then
        echo "check-fma: the GOARCH=$arch listing holds no instruction of $moddir" >&2
        status=1
        continue
    fi
    fused=$(awk -v dir="$moddir/" '
        $4 ~ /^F(N)?M(ADD|SUB)[DS]?$/ {
            match($0, /\([^)]*:[0-9]+\)/)
            pos = substr($0, RSTART + 1, RLENGTH - 2)
            if (index(pos, dir) == 1) pos = substr(pos, length(dir) + 1)
            print pos
        }' "$tmp/$arch.s" | sort -t: -k1,1 -k2,2n -u)
    if [ -n "$fused" ]; then
        echo "fused multiply-add on GOARCH=$arch — round the product with an explicit" >&2
        echo "conversion, float64(x*y), on the statement that forms it:" >&2
        echo "$fused" >&2
        status=1
    fi
done

files=$(go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./... | sed "s|^$moddir/||")
MATHFN='Sin|Cos|Tan|Sincos|Asin|Acos|Atan|Atan2|Exp|Exp2|Expm1|Log|Log10|Log1p|Log2|Pow|Hypot|Cbrt|Sinh|Cosh|Tanh|Asinh|Acosh|Atanh|Erf|Erfc|Erfinv|Erfcinv|Gamma|Lgamma|J0|J1|Jn|Y0|Y1|Yn'
calls=$(awk -v re="(math\\.($MATHFN)|\\.(ExpFloat64|NormFloat64))([^A-Za-z0-9_]|\$)" '
    {
        code = $0
        sub(/\/\/.*/, "", code)
        if (code ~ re && $0 !~ /fma:ok/) printf "%s:%d:%s\n", FILENAME, FNR, $0
    }' $files)
if [ -n "$calls" ]; then
    echo "architecture-dependent math call — use an exact operation or a local" >&2
    echo "kernel written with explicit conversions, or add a" >&2
    echo "'// fma:ok — <reason>' marker if its bits cannot reach an output:" >&2
    echo "$calls" >&2
    status=1
fi

[ $status -eq 0 ] && echo "check-fma: no fused multiply-add on $ARCHES; no architecture-dependent math call"
exit $status
