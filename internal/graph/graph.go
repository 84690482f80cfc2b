// Package graph implements the graph substrate used by every other package
// in this repository: a compact undirected graph with sorted adjacency
// lists, breadth-first shortest-path machinery with pluggable tie-breaking
// (deterministic-by-id and randomized — the heart of the paper's rKSP
// heuristic), max-flow disjoint-path counts, and whole-graph metrics such
// as average shortest path length and diameter.
//
// Graphs are immutable once built via Builder.Graph, which makes them safe
// to share across the worker pools used for all-pairs path computation and
// simulation. Algorithms that conceptually "remove" nodes or edges (Yen's
// algorithm, the Remove-Find edge-disjoint method) express removals as ban
// predicates on a search engine rather than by mutating the graph.
//
// # Representation
//
// The graph is stored in CSR (compressed sparse row) form: one flat
// neighbor arena shared by all nodes, indexed by per-node start offsets.
// The directed link index of u→v is simply that neighbor's position in the
// arena, so every per-link array in the simulators indexes the same dense
// id space the arena defines. Three packed side tables make link ids fully
// navigable in O(1): owner[l] is the source node of link l (LinkEndpoints
// needs no search), rev[l] is the id of the opposite direction
// (ReverseLink), and an open-addressed rank table answers LinkID(u, v)
// with one hash and a probe or two. There is no per-node
// slice header and no per-node allocation: a graph is five flat arrays
// regardless of node count, each O(n + links), which is what lets a
// 10k-switch Jellyfish instance stay a few megabytes.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"iter"
)

// NodeID identifies a node (switch) in a graph. IDs are dense in [0, N).
type NodeID = int32

// Graph is an immutable undirected graph with nodes 0..N-1 in CSR form.
// Adjacency lists are sorted ascending, which fixes the deterministic
// exploration order that the paper's "vanilla KSP" bias analysis depends
// on.
//
// Every directed link (u,v) — one direction of an undirected edge — has a
// dense link index in [0, NumDirectedLinks()), used by the throughput model
// and the simulators for O(1) per-link state arrays. Link l runs from
// owner[l] to nbr[l]; rev[l] is the link of the opposite direction.
type Graph struct {
	n     int
	m     int      // number of undirected edges
	nbr   []NodeID // neighbor arena: nbr[start[u]:start[u+1]] sorted ascending
	start []int32  // start[u] is the link index of u's first outgoing link
	owner []NodeID // owner[l] is the source node of directed link l
	rev   []int32  // rev[l] is the link id of the reverse direction
	// rank is LinkID's open-addressed table: linear probing over a
	// power-of-two array of at least twice the directed link count. The
	// slot of link u→v (probed from rankSlot(u, v)) holds v's position
	// in u's arena segment; rankEmpty marks a free slot.
	rank      []uint16
	rankShift uint8 // 64 - log2(len(rank)): rankSlot keeps the hash's top bits
}

// rankEmpty marks a free slot of the rank table; ranks are below it
// because Builder.Graph rejects degrees of rankEmpty and above.
const rankEmpty = 0xFFFF

// Builder accumulates edges and produces an immutable Graph. Adjacency is
// kept as per-node sorted slices, so freezing is a straight concatenation
// and build memory stays within a small constant of the final graph
// (unlike the per-node hash maps this replaced, which cost several times
// the frozen size at Jellyfish scale).
// The zero value is not usable; call NewBuilder.
type Builder struct {
	n   int
	adj [][]NodeID // sorted ascending, no duplicates
}

// NewBuilder returns a Builder for a graph with n nodes and no edges.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, adj: make([][]NodeID, n)}
}

// searchSorted returns the position of v in the sorted list, or the
// position it would be inserted at if absent.
func searchSorted(lst []NodeID, v NodeID) int {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge is
// a no-op and returns false. Self loops are rejected with a panic: neither
// Jellyfish construction nor any algorithm here tolerates them.
func (b *Builder) AddEdge(u, v NodeID) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self loop on node %d", u))
	}
	b.check(u)
	b.check(v)
	lst, ok := insertSorted(b.adj[u], v)
	if !ok {
		return false
	}
	b.adj[u] = lst
	b.adj[v], _ = insertSorted(b.adj[v], u)
	return true
}

func insertSorted(lst []NodeID, v NodeID) ([]NodeID, bool) {
	i := searchSorted(lst, v)
	if i < len(lst) && lst[i] == v {
		return lst, false
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = v
	return lst, true
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it existed.
func (b *Builder) RemoveEdge(u, v NodeID) bool {
	b.check(u)
	b.check(v)
	lst, ok := deleteSorted(b.adj[u], v)
	if !ok {
		return false
	}
	b.adj[u] = lst
	b.adj[v], _ = deleteSorted(b.adj[v], u)
	return true
}

func deleteSorted(lst []NodeID, v NodeID) ([]NodeID, bool) {
	i := searchSorted(lst, v)
	if i >= len(lst) || lst[i] != v {
		return lst, false
	}
	copy(lst[i:], lst[i+1:])
	return lst[:len(lst)-1], true
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (b *Builder) HasEdge(u, v NodeID) bool {
	b.check(u)
	b.check(v)
	lst := b.adj[u]
	i := searchSorted(lst, v)
	return i < len(lst) && lst[i] == v
}

// Degree returns the current degree of u.
func (b *Builder) Degree(u NodeID) int {
	b.check(u)
	return len(b.adj[u])
}

// NumNodes returns the node count.
func (b *Builder) NumNodes() int { return b.n }

func (b *Builder) check(u NodeID) {
	if u < 0 || int(u) >= b.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, b.n))
	}
}

// Graph freezes the builder's current edge set into an immutable Graph.
// The builder remains usable afterwards. It panics if a node has degree
// 65,535 or more, which the 16-bit ranks of the LinkID table cannot hold
// (Jellyfish switches have a few dozen ports).
func (b *Builder) Graph() *Graph {
	total := 0
	for u := range b.adj {
		if len(b.adj[u]) >= rankEmpty {
			panic(fmt.Sprintf("graph: node %d has degree %d, the limit is %d", u, len(b.adj[u]), rankEmpty-1))
		}
		total += len(b.adj[u])
	}
	g := &Graph{
		n:     b.n,
		m:     total / 2,
		nbr:   make([]NodeID, total),
		start: make([]int32, b.n+1),
		owner: make([]NodeID, total),
		rev:   make([]int32, total),
	}
	pos := int32(0)
	for u := range b.adj {
		g.start[u] = pos
		copy(g.nbr[pos:], b.adj[u])
		for i := range b.adj[u] {
			g.owner[pos+int32(i)] = NodeID(u)
		}
		pos += int32(len(b.adj[u]))
	}
	g.start[b.n] = pos
	g.fillRank()
	g.fillReverse()
	return g
}

// fillRank builds the LinkID table: every link u→v is inserted at the
// first free slot from rankSlot(u, v) on, holding v's rank in u's
// segment. The table is at least twice the link count, so a probe
// sequence always reaches a free slot.
func (g *Graph) fillRank() {
	bits := 0
	for 1<<bits < 2*len(g.nbr) {
		bits++
	}
	g.rank = make([]uint16, 1<<bits)
	for i := range g.rank {
		g.rank[i] = rankEmpty
	}
	g.rankShift = uint8(64 - bits)
	mask := uint64(len(g.rank) - 1)
	for l, v := range g.nbr {
		u := g.owner[l]
		i := g.rankSlot(u, v)
		for g.rank[i] != rankEmpty {
			i = (i + 1) & mask
		}
		g.rank[i] = uint16(int32(l) - g.start[u])
	}
}

// rankSlot is the first slot LinkID probes for (u, v): a Fibonacci hash
// of the pair, keeping the product's top bits.
func (g *Graph) rankSlot(u, v NodeID) uint64 {
	return (PairKey(u, v) * 0x9E3779B97F4A7C15) >> g.rankShift
}

// fillReverse populates rev: the reverse of link l = u→v is LinkID(v, u).
func (g *Graph) fillReverse() {
	for l, v := range g.nbr {
		g.rev[l] = g.LinkID(v, g.owner[l])
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// Fingerprint returns a 64-bit FNV-1a hash of the graph's structure: the
// node count and every (sorted) adjacency list. Two graphs are
// fingerprint-equal exactly when they have the same node count and edge
// set, so the on-disk path cache can key archived databases to the exact
// topology instance they were computed on.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.n))
	put(uint64(g.m))
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[g.start[u]:g.start[u+1]] {
			put(uint64(uint32(v)))
		}
		put(^uint64(0)) // per-list terminator: [0,1],[2] != [0],[1,2]
	}
	return h.Sum64()
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// NumDirectedLinks returns the number of directed links (2 × NumEdges).
func (g *Graph) NumDirectedLinks() int { return 2 * g.m }

// Neighbors returns u's neighbor list, sorted ascending: a view into the
// shared arena, valid for the life of the graph, that must not be
// modified. Neighbor i of the returned slice is the target of directed
// link LinkRange(u).lo + i.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.nbr[g.start[u]:g.start[u+1]:g.start[u+1]]
}

// LinkRange returns the half-open range [lo, hi) of u's outgoing directed
// link ids. Iterating it visits u's neighbors in ascending order via
// LinkTarget, with the link id in hand — the allocation-free way hot loops
// walk the arena without chasing per-node slice headers.
func (g *Graph) LinkRange(u NodeID) (lo, hi int32) {
	return g.start[u], g.start[u+1]
}

// LinkTarget returns the destination node of a directed link: v for
// l = LinkID(u, v).
func (g *Graph) LinkTarget(l int32) NodeID { return g.nbr[l] }

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int { return int(g.start[u+1] - g.start[u]) }

// HasEdge reports whether {u, v} is an edge, through LinkID's table.
func (g *Graph) HasEdge(u, v NodeID) bool {
	return g.LinkID(u, v) >= 0
}

// LinkID returns the dense index of the directed link u→v, or -1 if {u, v}
// is not an edge. It probes the rank table from rankSlot(u, v) until a
// slot's rank r names v in u's segment (any such slot does: v appears
// there once) or a free slot ends the search. At a load factor of at
// most one half that averages about 1.5 probes for an edge and 2.5 for a
// non-edge, independent of the degree. It panics when u is out of range.
func (g *Graph) LinkID(u, v NodeID) int32 {
	lo, hi := g.start[u], g.start[u+1]
	seg := g.nbr[lo:hi]
	mask := uint64(len(g.rank) - 1)
	for i := g.rankSlot(u, v); ; i = (i + 1) & mask {
		r := g.rank[i]
		if r == rankEmpty {
			return -1
		}
		if int(r) < len(seg) && seg[r] == v {
			return lo + int32(r)
		}
	}
}

// LinkEndpoints is the inverse of LinkID: it returns (u, v) for a directed
// link index, in O(1) via the packed owner table. It panics on an
// out-of-range index.
func (g *Graph) LinkEndpoints(l int32) (u, v NodeID) {
	if l < 0 || int(l) >= len(g.nbr) {
		panic(fmt.Sprintf("graph: link %d out of range", l))
	}
	return g.owner[l], g.nbr[l]
}

// ReverseLink returns the link id of the opposite direction: LinkID(v, u)
// for l = LinkID(u, v), in O(1). It panics on an out-of-range index.
func (g *Graph) ReverseLink(l int32) int32 {
	if l < 0 || int(l) >= len(g.nbr) {
		panic(fmt.Sprintf("graph: link %d out of range", l))
	}
	return g.rev[l]
}

// Edges iterates every undirected edge exactly once as (u, v) pairs with
// u < v, in ascending (u, v) order, straight off the arena.
func (g *Graph) Edges() iter.Seq2[NodeID, NodeID] {
	return func(yield func(NodeID, NodeID) bool) {
		for u := 0; u < g.n; u++ {
			for _, v := range g.nbr[g.start[u]:g.start[u+1]] {
				if NodeID(u) < v && !yield(NodeID(u), v) {
					return
				}
			}
		}
	}
}

// FootprintBytes returns the retained heap size of the packed
// representation: the neighbor arena, the start offsets, the two link
// tables and LinkID's rank table. It is exact (the arrays are allocated
// tight) and what `jftopo -stats` and the graph benchmark report.
func (g *Graph) FootprintBytes() int64 {
	return int64(4*(len(g.nbr)+len(g.start)+len(g.owner)+len(g.rev)) + 2*len(g.rank))
}

// Clone returns a Builder pre-populated with g's edges, for algorithms that
// genuinely need destructive edits (e.g. the fault machinery building a
// failed-edge-filtered view). The adjacency is copied directly out of the
// CSR arena segment by segment — already sorted, no re-hashing, no
// re-sorting — so cloning costs one pass over the arena.
func (g *Graph) Clone() *Builder {
	b := &Builder{n: g.n, adj: make([][]NodeID, g.n)}
	for u := 0; u < g.n; u++ {
		seg := g.nbr[g.start[u]:g.start[u+1]]
		if len(seg) == 0 {
			continue
		}
		lst := make([]NodeID, len(seg))
		copy(lst, seg)
		b.adj[u] = lst
	}
	return b
}

// IsRegular reports whether every node has the same degree, and that degree.
func (g *Graph) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if g.Degree(NodeID(u)) != d {
			return 0, false
		}
	}
	return d, true
}

// IsConnected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	visited := make([]bool, g.n)
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, 0)
	visited[0] = true
	seen := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.nbr[g.start[u]:g.start[u+1]] {
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
	}
	return seen == g.n
}
