package kg

import "fmt"

// NodeType identifies a node type (Φ image), e.g. ITEM, FEATURE, BRAND.
type NodeType uint8

// EdgeType identifies an edge type (Ψ image), e.g. SUPPORTS, MADE_BY.
type EdgeType uint8

// TypedEdge is an arc in the knowledge graph.
type TypedEdge struct {
	To int32
	ET EdgeType
}

// KG is an immutable heterogeneous information network. Node ids are
// dense 0..N-1; items are the nodes whose type equals the ITEM type
// registered at construction, and each item node also has a dense item
// id 0..|I|-1 used throughout the diffusion engine.
type KG struct {
	nodeTypeNames []string
	edgeTypeNames []string
	itemType      NodeType

	ntype []NodeType
	out   [][]TypedEdge
	in    [][]TypedEdge

	items     []int32 // item id -> KG node id
	itemIndex []int32 // KG node id -> item id or -1
}

// Builder assembles a KG.
type Builder struct {
	nodeTypeNames []string
	edgeTypeNames []string
	itemType      NodeType
	hasItemType   bool

	ntype []NodeType
	edges []struct {
		u, v int32
		et   EdgeType
	}
}

// NewBuilder creates a KG builder.
func NewBuilder() *Builder { return &Builder{} }

// NodeTypeID registers (or returns) the type id for name. The first
// registration of "ITEM" marks the item type.
func (b *Builder) NodeTypeID(name string) NodeType {
	for i, n := range b.nodeTypeNames {
		if n == name {
			return NodeType(i)
		}
	}
	if len(b.nodeTypeNames) >= 250 {
		panic("kg: too many node types")
	}
	b.nodeTypeNames = append(b.nodeTypeNames, name)
	id := NodeType(len(b.nodeTypeNames) - 1)
	if name == "ITEM" {
		b.itemType = id
		b.hasItemType = true
	}
	return id
}

// EdgeTypeID registers (or returns) the type id for name.
func (b *Builder) EdgeTypeID(name string) EdgeType {
	for i, n := range b.edgeTypeNames {
		if n == name {
			return EdgeType(i)
		}
	}
	if len(b.edgeTypeNames) >= 250 {
		panic("kg: too many edge types")
	}
	b.edgeTypeNames = append(b.edgeTypeNames, name)
	return EdgeType(len(b.edgeTypeNames) - 1)
}

// AddNode appends a node of type t and returns its id.
func (b *Builder) AddNode(t NodeType) int {
	b.ntype = append(b.ntype, t)
	return len(b.ntype) - 1
}

// AddEdge records a directed typed edge u->v.
func (b *Builder) AddEdge(u, v int, et EdgeType) {
	if u < 0 || u >= len(b.ntype) || v < 0 || v >= len(b.ntype) {
		panic(fmt.Sprintf("kg: edge (%d,%d) out of range n=%d", u, v, len(b.ntype)))
	}
	b.edges = append(b.edges, struct {
		u, v int32
		et   EdgeType
	}{int32(u), int32(v), et})
}

// Build finalises the KG. It panics if no ITEM node type was registered.
func (b *Builder) Build() *KG {
	if !b.hasItemType {
		panic("kg: Build without an ITEM node type")
	}
	n := len(b.ntype)
	g := &KG{
		nodeTypeNames: append([]string(nil), b.nodeTypeNames...),
		edgeTypeNames: append([]string(nil), b.edgeTypeNames...),
		itemType:      b.itemType,
		ntype:         append([]NodeType(nil), b.ntype...),
		out:           make([][]TypedEdge, n),
		in:            make([][]TypedEdge, n),
		itemIndex:     make([]int32, n),
	}
	for _, e := range b.edges {
		g.out[e.u] = append(g.out[e.u], TypedEdge{To: e.v, ET: e.et})
		g.in[e.v] = append(g.in[e.v], TypedEdge{To: e.u, ET: e.et})
	}
	for v := 0; v < n; v++ {
		g.itemIndex[v] = -1
		if g.ntype[v] == g.itemType {
			g.itemIndex[v] = int32(len(g.items))
			g.items = append(g.items, int32(v))
		}
	}
	return g
}

// N returns the number of KG nodes.
func (g *KG) N() int { return len(g.ntype) }

// M returns the number of typed edges.
func (g *KG) M() int {
	m := 0
	for _, es := range g.out {
		m += len(es)
	}
	return m
}

// NumItems returns |I|.
func (g *KG) NumItems() int { return len(g.items) }

// ItemNode returns the KG node id of item i.
func (g *KG) ItemNode(i int) int { return int(g.items[i]) }

// ItemID returns the dense item id of KG node v, or -1.
func (g *KG) ItemID(v int) int { return int(g.itemIndex[v]) }

// NodeTypeOf returns Φ(v).
func (g *KG) NodeTypeOf(v int) NodeType { return g.ntype[v] }

// NodeTypeName returns the registered name of t.
func (g *KG) NodeTypeName(t NodeType) string { return g.nodeTypeNames[t] }

// EdgeTypeName returns the registered name of t.
func (g *KG) EdgeTypeName(t EdgeType) string { return g.edgeTypeNames[t] }

// NumNodeTypes returns the count of registered node types (Table II row).
func (g *KG) NumNodeTypes() int { return len(g.nodeTypeNames) }

// NumEdgeTypes returns the count of registered edge types (Table II row).
func (g *KG) NumEdgeTypes() int { return len(g.edgeTypeNames) }

// Out returns the outgoing typed edges of v; do not modify.
func (g *KG) Out(v int) []TypedEdge { return g.out[v] }

// In returns the incoming typed edges of v; do not modify.
func (g *KG) In(v int) []TypedEdge { return g.in[v] }

// LookupNodeType returns the id of a registered type name.
func (g *KG) LookupNodeType(name string) (NodeType, bool) {
	for i, n := range g.nodeTypeNames {
		if n == name {
			return NodeType(i), true
		}
	}
	return 0, false
}

// LookupEdgeType returns the id of a registered edge type name.
func (g *KG) LookupEdgeType(name string) (EdgeType, bool) {
	for i, n := range g.edgeTypeNames {
		if n == name {
			return EdgeType(i), true
		}
	}
	return 0, false
}
