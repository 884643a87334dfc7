package fleet

import (
	"hash/fnv"
	"sort"
)

// Ring is the fleet's consistent-hash placement over the live nodes, by
// rendezvous (highest-random-weight) hashing: a key's owner is the node
// whose weight mix(hash(key) XOR hash(node)) is largest. It gives the two
// placement properties the failover design leans on: removing a node moves
// only the keys it owned (each lands on its "next hash owner", the
// runner-up weight), and re-adding it moves exactly those keys back — so a
// healed partition reclaims its own sessions and nothing else reshuffles.
// Every node's expected share is exactly 1/n whatever the addresses, so
// placement stays balanced without virtual nodes.
type Ring struct {
	nodes []ringNode // sorted by address
}

// ringNode is one node with its precomputed address hash.
type ringNode struct {
	hash uint64
	addr string
}

// NewRing builds a ring over the node addresses (duplicates are collapsed).
// An empty node list yields an empty ring whose Owner is always "".
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{nodes: make([]ringNode, 0, len(nodes))}
	for _, addr := range nodes {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		r.nodes = append(r.nodes, ringNode{hash: hash64(addr), addr: addr})
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].addr < r.nodes[j].addr })
	return r
}

// Owner returns the node owning the key: the highest weight wins, ties
// (a vanishingly unlikely 64-bit collision) going to the smaller address so
// every view agrees. "" on an empty ring.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	owner, best := "", uint64(0)
	for _, m := range r.nodes {
		if w := mix64(h ^ m.hash); owner == "" || w > best {
			owner, best = m.addr, w
		}
	}
	return owner
}

// hash64 is FNV-64a — the repo's standard dependency-free hash (same family
// as trace.SpanIDFor), deterministic across processes so every node derives
// the same placement — finished with mix64, because bare FNV-1a mixes the
// short, shared-prefix strings placement hashes (peer addresses, session
// IDs) poorly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijection on 64 bits whose every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
