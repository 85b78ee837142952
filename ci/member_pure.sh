#!/bin/sh
# Member-plane purity gate: the member's lock plane (internal/gwc/plane.go)
# decides and does nothing else. It reaches the node, the network and the
# clock only through its sink, so it can be checked alone and enumerated
# together with the lock book. Fail if the file names the node (*Node,
# n.mu), the node's group state (memberGroup), the network (transport) or
# a clock (vclock, .Now()).
#
#	sh ci/member_pure.sh
set -eu
cd "$(dirname "$0")/.."

hits=$(grep -nE '\*Node|n\.mu|memberGroup|transport|vclock|\.Now\(\)' internal/gwc/plane.go || true)
if [ -n "$hits" ]; then
	echo "member purity gate: internal/gwc/plane.go reaches past its sink (memberSink):" >&2
	echo "$hits" >&2
	exit 1
fi
echo "member purity gate: ok"
