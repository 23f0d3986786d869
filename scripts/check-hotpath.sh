#!/bin/sh
# check-hotpath.sh — ban per-packet formatting and slice-shift queue pops in
# the datapath packages (the 802.15.4 MAC among them) and the two
# layers every packet runs on (phy, sim), func values held or scheduled by the
# protocol layers below CoAP, closures scheduled anywhere in the simulator but
# its harness, and format-string trace calls anywhere in the simulator.
#
# Both cost nothing to write and were most of the loaded tree's host time:
# a fmt.Sprintf cache key allocated on every CoAP request, and `q = q[1:]`
# FIFO pops that reallocate the backing array every few packets while keeping
# popped buffers reachable through it (EXPERIMENTS.md "Loaded-path cost").
# Queues use internal/ring; keys are packed integers.
#
#   fmt.Sprint*   allowed only inside a String() method, on a panic( line, or
#                 inside an `if ...tr.Enabled() {` / `if ...tr.Keeps(id) {`
#                 block (three of the four benchmark workloads run with
#                 tracing off; mesh-churn samples one packet in ten, and
#                 Keeps is false for the other nine);
#   x = x[1:]     never: pop from a ring.Ring;
#   x.OnFoo = func(...), a func-typed struct field, type T func(...)
#                 never in ble, l2cap, gatt, core, statconn, rpl, fault and
#                 dot15d4: an upcall is an interface the layer above
#                 implements with a type it already allocates (a link, an
#                 endpoint, a manager, the 802.15.4 adapter),
#                 because a closure there is one more heap object per link
#                 end or node for the garbage collector to mark. A field is
#                 func-typed when its type mentions func( — a slice or map of
#                 funcs too; a named func type is banned where it is declared;
#   x.Emit(, x.EmitPkt(
#                 never in internal/ (rpl, exp and the rest as well as the
#                 datapath): a layer records an event with Log.Add and a
#                 typed record from internal/trace/record.go, which takes
#                 its fields by value and formats nothing until export.
#                 EmitPkt's format string boxes its arguments and allocates
#                 text per kept event; it stays for callers outside internal/.
#   .Post(f) .PostAt(f) .After(f) .At(f) .Schedule(h) .Transmit(..., h)
#                 never with a func literal, a sim.Func(...) or a method value
#                 (m.s.Post(d, m.cca)), nor Post, PostAt, After or At with a
#                 func variable (in.s.Post(d, tick)), in non-test internal/
#                 outside exp (the harness: producers, samplers, polls) and
#                 sim (the API itself and its benchmark workloads): each is
#                 one heap object per frame or link event, and a step the
#                 owner does not hold is one its stop path cannot cancel. An
#                 event is a handler type declared over the owner
#                 ((*macCCA)(m)), which the sim.Handler interface stores as
#                 it is (DESIGN.md §3, "Events are handlers"). A call whose
#                 arguments run over several lines is read to the line that
#                 closes it or opens a func body.
#
# A deliberate cold-path use carries a "// hotpath:ignore — <reason>" marker
# on the same line. Test files are exempt.
#
# Usage: scripts/check-hotpath.sh   (from the repo root; exits 1 on offence)
set -eu

DATAPATH="internal/coap internal/ip6 internal/sixlo internal/l2cap internal/core internal/ble internal/dot15d4 internal/phy internal/sim"

files=$(find $DATAPATH -name '*.go' ! -name '*_test.go' | sort)

# gofmt guarantees a block opened on a line indented by N tabs is closed by
# the first later line that is N tabs and a "}", which is all the block
# tracking below relies on.
sprints=$(awk '
function indent(s) { match(s, /^\t*/); return RLENGTH }
FNR == 1 { exempt = 0 }
{
    if (exempt && indent($0) == depth && $0 ~ /^\t*}/) { exempt = 0; next }
    if (!exempt && $0 ~ /{$/ && ($0 ~ /^func .*String\(\) string {$/ || $0 ~ /tr\.(Enabled\(\)|Keeps\()/)) {
        exempt = 1; depth = indent($0); next
    }
    if (exempt || $0 !~ /fmt\.Sprint/) next
    if ($0 ~ /String\(\) string/ || $0 ~ /panic\(/ || $0 ~ /hotpath:ignore/) next
    printf "%s:%d:%s\n", FILENAME, FNR, $0
}' $files)

shifts=$(grep -HnE '([A-Za-z_][A-Za-z0-9_.]*) = \1\[1:\]' $files | grep -v 'hotpath:ignore' || true)

LAYERS="internal/ble internal/l2cap internal/gatt internal/core internal/statconn internal/rpl internal/fault internal/dot15d4"
upfiles=$(find $LAYERS -name '*.go' ! -name '*_test.go' | sort)
closures=$(grep -HnE '\.On[A-Z][A-Za-z0-9]* *= .*func *\(' $upfiles | grep -v 'hotpath:ignore' || true)

# A struct body opened by a line ending in "struct {" ends at the first later
# line indented as deep that is a "}" (gofmt), as the sprints block does.
funcfields=$(awk '
function indent(s) { match(s, /^\t*/); return RLENGTH }
FNR == 1 { depth = -1 }
depth >= 0 && indent($0) == depth && $0 ~ /^\t*}/ { depth = -1; next }
depth < 0 && $0 ~ /struct {$/ && $0 !~ /^\t*\/\// { depth = indent($0); next }
$0 ~ /hotpath:ignore/ { next }
$0 ~ /^type [A-Za-z_][A-Za-z0-9_]* func/ ||
(depth >= 0 && $0 ~ /^\t+[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]+[^\/:]*func *\(/) {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
}' $upfiles)

schedfiles=$(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/exp/*' ! -path 'internal/sim/*' | sort)
scheduled=$(awk '
function opens(s) { return gsub(/\(/, "(", s) - gsub(/\)/, ")", s) }
function check() {
    if ((text ~ /func *\(|sim\.Func\(|, *[a-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+\)[ }]*$/ ||
        (text ~ /^\.(Post|PostAt|After|At)\(/ && text ~ /, *[a-z_][A-Za-z0-9_]*\)[ }]*$/)) && first !~ /hotpath:ignore/)
        printf "%s:%d:%s\n", FILENAME, line, first
    text = ""
}
FNR == 1 { text = "" }
text != "" {
    text = text " " $0; depth += opens($0)
    if (depth <= 0 || $0 ~ /{$/) check()
    next
}
match($0, /\.(Post|PostAt|After|At|Schedule|Transmit)\(/) {
    text = substr($0, RSTART); first = $0; line = FNR; depth = opens(text)
    if (depth <= 0 || $0 ~ /{$/) check()
}' $schedfiles)

traces=$(find internal -name '*.go' ! -name '*_test.go' | sort | xargs grep -HnE '\.(Emit|EmitPkt)\(' | grep -v 'hotpath:ignore' || true)

status=0
if [ -n "$sprints" ]; then
    echo "fmt.Sprint* on the datapath — pack the value into an integer or a" >&2
    echo "struct key, or add a '// hotpath:ignore — <reason>' marker if the path is cold:" >&2
    echo "$sprints" >&2
    status=1
fi
if [ -n "$shifts" ]; then
    echo "slice-shift queue pop on the datapath — use ring.Ring, or add a" >&2
    echo "'// hotpath:ignore — <reason>' marker if the path is cold:" >&2
    echo "$shifts" >&2
    status=1
fi
if [ -n "$closures" ]; then
    echo "func literal assigned to an upcall field — implement the field's interface" >&2
    echo "with a type the owner already allocates, or add a" >&2
    echo "'// hotpath:ignore — <reason>' marker if it is set once and cold:" >&2
    echo "$closures" >&2
    status=1
fi
if [ -n "$funcfields" ]; then
    echo "func-typed field or func type in a protocol layer — make it an interface the" >&2
    echo "owner implements with a type it already allocates, or add a" >&2
    echo "'// hotpath:ignore — <reason>' marker if it is set once and cold:" >&2
    echo "$funcfields" >&2
    status=1
fi
if [ -n "$scheduled" ]; then
    echo "closure scheduled outside the harness — declare a handler type over" >&2
    echo "the owner and pass (*ownerX)(o), or add a '// hotpath:ignore — <reason>' marker if" >&2
    echo "it is not per frame or per link event:" >&2
    echo "$scheduled" >&2
    status=1
fi
if [ -n "$traces" ]; then
    echo "format-string trace call in the simulator — record a typed event with" >&2
    echo "Log.Add and a constructor of internal/trace/record.go, or add a" >&2
    echo "'// hotpath:ignore — <reason>' marker if it is deliberate:" >&2
    echo "$traces" >&2
    status=1
fi
[ $status -eq 0 ] && echo "check-hotpath: datapath packages clean"
exit $status
