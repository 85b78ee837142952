#!/bin/sh
# Lock-book purity gate: the root's lock manager (internal/gwc/book.go)
# decides and does nothing else. It reaches the node, the network and the
# clock only through its sink, so it can be checked alone. Fail if the
# file names the node (*Node, n.mu), the reign's shell (rootGroup), the
# network (transport) or a clock (vclock, .Now()).
#
#	sh ci/book_pure.sh
set -eu
cd "$(dirname "$0")/.."

hits=$(grep -nE '\*Node|rootGroup|transport|vclock|\.Now\(\)|n\.mu' internal/gwc/book.go || true)
if [ -n "$hits" ]; then
	echo "book purity gate: internal/gwc/book.go reaches past its sink (bookSink):" >&2
	echo "$hits" >&2
	exit 1
fi
echo "book purity gate: ok"
