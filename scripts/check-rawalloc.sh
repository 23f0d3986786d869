#!/bin/sh
# check-rawalloc.sh — ban raw byte-slice allocation in the datapath packages.
#
# The zero-copy datapath gets its allocation guarantees from internal/pktbuf;
# a stray make([]byte, ...) in a packet-handling package silently reintroduces
# the per-hop copies the pool removed, and nothing else would catch it until
# TestPacketPathAllocBudget (internal/exp) trips. Deliberate copies on cold
# paths (signaling, diagnostics) carry a "// pktbuf:ignore — <reason>" marker
# on the same line; everything else is an error. A marker whose reason is a
# "fallback API" is an error too: every datapath layer has one entry point on
# *pktbuf.Buf, and a []byte twin beside it is not a reason to copy. Test files
# are exempt. CoAP is datapath too: every exchange encodes and decodes a
# message, so its codec writes into caller buffers and decodes in place.
#
# Usage: scripts/check-rawalloc.sh   (from the repo root; exits 1 on offence)
set -eu

DATAPATH="internal/coap internal/ip6 internal/sixlo internal/l2cap internal/core internal/ble internal/dot15d4"

offences=$(grep -rn 'make(\[\]byte' $DATAPATH --include='*.go' \
    | grep -v '_test\.go:' \
    | grep -v 'pktbuf:ignore' || true)

fallbacks=$(grep -rn 'pktbuf:ignore.*fallback API' $DATAPATH --include='*.go' \
    | grep -v '_test\.go:' || true)

if [ -n "$offences" ]; then
    echo "raw make([]byte in the pooled datapath — use pktbuf.Get or add a" >&2
    echo "'// pktbuf:ignore — <reason>' marker if the copy is deliberate:" >&2
    echo "$offences" >&2
    exit 1
fi
if [ -n "$fallbacks" ]; then
    echo "pktbuf:ignore for a []byte fallback API — each layer keeps one entry" >&2
    echo "point on *pktbuf.Buf; delete the twin instead:" >&2
    echo "$fallbacks" >&2
    exit 1
fi
echo "check-rawalloc: datapath packages clean"
