// Package fleet implements the distributed compile tier: a static cluster of
// serenityd instances that share one global corpus of per-segment schedule
// artifacts, so each distinct segment fingerprint pays its memory-aware DP
// once — fleet-wide, not once per process.
//
// Four pieces compose the tier:
//
//   - Ring: a consistent-hash ring (virtual nodes, rendezvous tiebreak) that
//     assigns every content-addressed segment key exactly one authoritative
//     owner. Ownership bounds the compile path to at most one peer round trip
//     per miss: a node asks the owner, and only the owner.
//   - Health: the fleet's one failure detector. A prober heartbeats every
//     peer, and every transport failure a fetch or a replication push sees
//     feeds the same view, which walks each peer alive → suspect → dead and
//     back. Every peer round trip routes by it, so a dead owner's keys fail
//     over to the next live ring point, identically on every node.
//   - Client: the bounded-concurrency HTTP fetch path a compile miss takes
//     before falling back to running the DP, plus write-behind replication of
//     locally computed non-owned keys to their owners. Budgeted aggressively:
//     short timeout, single retry, and a negative-result cache, so a slow or
//     dead peer costs a small bounded latency — never more than a fraction of
//     the DP it was trying to avoid — and degrades to local compute, never to
//     an error.
//   - Server + Syncer: the peer-facing HTTP surface (artifact get/put, sync)
//     and the pull-based anti-entropy loop over the Client's ring and health
//     view. Each round is one exchange: the Syncer posts the digest of every
//     key it holds, and the peer streams back a capped batch of the records
//     the digest lacks. The ring bounds who a compile miss asks; anti-entropy
//     spreads the corpus in the background so a rebooted or newly joined node
//     converges a capped batch per round instead of thundering onto one peer.
//
// Everything here degrades gracefully by construction: every fleet failure
// mode (dead peer, slow peer, corrupt artifact, alien stream) converts into
// "compute locally", which is exactly what a fleetless serenityd would do.
package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the per-member virtual node count: enough points
// that a three-node ring splits the keyspace within a few percent of evenly,
// small enough that building a ring stays microseconds.
const DefaultVirtualNodes = 64

// hash64 is the ring's placement hash (FNV-1a with a splitmix64 finalizer).
// It must be identical on every member — ownership is only consistent if all
// nodes compute the same ring — so it is deliberately dependency-free.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash   uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over a static member set. Each
// member contributes vnodes points; a key is owned by the member whose point
// is the first at or clockwise of the key's hash. Two members landing on the
// same point (a 64-bit coincidence, but fleets must not silently disagree on
// ownership) are broken by rendezvous hashing — highest hash(member, key)
// wins — which every node computes identically.
//
// Members are addresses as peers dial them (e.g. "http://10.0.0.5:7433");
// the set is sorted and deduplicated, so every node that is given the same
// membership builds the same ring regardless of flag order.
type Ring struct {
	self    string
	selfIdx int
	members []string
	points  []ringPoint
}

// NewRing builds a ring over members (which must include self). vnodes <= 0
// selects DefaultVirtualNodes.
func NewRing(self string, members []string, vnodes int) (*Ring, error) {
	if self == "" {
		return nil, fmt.Errorf("fleet: ring needs a self address")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make(map[string]bool, len(members)+1)
	all := make([]string, 0, len(members)+1)
	for _, m := range append(append([]string(nil), members...), self) {
		m = strings.TrimSuffix(strings.TrimSpace(m), "/")
		if m == "" || uniq[m] {
			continue
		}
		uniq[m] = true
		all = append(all, m)
	}
	sort.Strings(all)
	self = strings.TrimSuffix(strings.TrimSpace(self), "/")
	r := &Ring{self: self, selfIdx: -1, members: all}
	for i, m := range all {
		if m == self {
			r.selfIdx = i
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, v)), member: i})
		}
	}
	if r.selfIdx < 0 {
		return nil, fmt.Errorf("fleet: self %q did not survive membership normalization", self)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Self returns this node's normalized member address.
func (r *Ring) Self() string { return r.self }

// Members returns every member address, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Peers returns every member except self, sorted.
func (r *Ring) Peers() []string {
	out := make([]string, 0, len(r.members)-1)
	for i, m := range r.members {
		if i != r.selfIdx {
			out = append(out, m)
		}
	}
	return out
}

// ownerIdx locates key's owner: the first ring point at or clockwise of the
// key's hash, with coincident points broken by rendezvous hashing so every
// member resolves the tie the same way.
func (r *Ring) ownerIdx(key string) int {
	h := hash64(key)
	n := len(r.points)
	i := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	if i == n {
		i = 0 // wrap past the highest point to the lowest
	}
	best := r.points[i].member
	// Collect every point sharing the chosen hash value and rendezvous-break.
	if j := i + 1; j < n && r.points[j].hash == r.points[i].hash {
		bestScore := hash64(fmt.Sprintf("%s\x00%s", r.members[best], key))
		for ; j < n && r.points[j].hash == r.points[i].hash; j++ {
			cand := r.points[j].member
			if cand == best {
				continue
			}
			if score := hash64(fmt.Sprintf("%s\x00%s", r.members[cand], key)); score > bestScore {
				best, bestScore = cand, score
			}
		}
	}
	return best
}

// Owner returns the member address that authoritatively owns key.
func (r *Ring) Owner(key string) string { return r.members[r.ownerIdx(key)] }

// Owners returns up to max distinct members in key's failover order: the
// authoritative owner first, then each further distinct member encountered
// walking the ring clockwise. Every node with the same membership computes
// the identical sequence, which is what makes health-driven failover
// coordination-free: when the primary is down, everyone independently agrees
// on the same next-in-line owner.
func (r *Ring) Owners(key string, max int) []string {
	if max <= 0 || len(r.members) == 0 {
		return nil
	}
	if max > len(r.members) {
		max = len(r.members)
	}
	primary := r.ownerIdx(key)
	out := []string{r.members[primary]}
	seen := map[int]bool{primary: true}
	h := hash64(key)
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for scanned := 0; scanned < n && len(out) < max; scanned++ {
		p := r.points[(start+scanned)%n]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// LiveOwner returns the first member in key's failover order that live
// reports healthy; this node itself always counts as live (a node never
// routes around itself), so every key always has some live owner even when
// the rest of the fleet is down. A nil live degrades to the static Owner.
func (r *Ring) LiveOwner(key string, live func(string) bool) string {
	if live == nil {
		return r.Owner(key)
	}
	owners := r.Owners(key, len(r.members))
	for _, m := range owners {
		if m == r.self || live(m) {
			return m
		}
	}
	// Unreachable when self is a member, but never return "" regardless.
	return owners[0]
}

// Owns reports whether this node is key's authoritative owner. A single-node
// ring owns everything, which disables the peer fetch path by construction.
func (r *Ring) Owns(key string) bool { return r.ownerIdx(key) == r.selfIdx }

// OwnedShare estimates the fraction of the keyspace this node owns by probing
// samples evenly spread synthetic keys — the ring-ownership gauge serenityd
// exports so an operator can see a misbalanced or misconfigured ring.
func (r *Ring) OwnedShare(samples int) float64 {
	if samples <= 0 {
		samples = 1024
	}
	owned := 0
	for i := 0; i < samples; i++ {
		if r.Owns(fmt.Sprintf("ring-share-probe-%d", i)) {
			owned++
		}
	}
	return float64(owned) / float64(samples)
}
