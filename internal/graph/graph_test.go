package graph

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func line(id string) *Graph {
	g := New(id)
	g.MustAddVertex(Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(Vertex{ID: "hub"})
	g.MustAddVertex(Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(Edge{ID: "g-h", From: "gen", To: "hub", Capacity: 100, Cost: 0.1, Kind: KindGeneration})
	g.MustAddEdge(Edge{ID: "h-l", From: "hub", To: "load", Capacity: 90, Loss: 0.05, Cost: 0.2, Kind: KindDistribution})
	return g
}

func TestBuildAndLookup(t *testing.T) {
	g := line("t")
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.VertexIndex("hub") != 1 || g.VertexIndex("nope") != -1 {
		t.Fatal("VertexIndex wrong")
	}
	if g.EdgeIndex("h-l") != 1 || g.EdgeIndex("nope") != -1 {
		t.Fatal("EdgeIndex wrong")
	}
	if g.Vertex("gen") == nil || g.Vertex("zzz") != nil {
		t.Fatal("Vertex lookup wrong")
	}
	if g.Edge("g-h") == nil || g.Edge("zzz") != nil {
		t.Fatal("Edge lookup wrong")
	}
	if got := g.InEdges("hub"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("InEdges(hub) = %v", got)
	}
	if got := g.OutEdges("hub"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("OutEdges(hub) = %v", got)
	}
}

func TestDuplicateAndUnknownRejected(t *testing.T) {
	g := New("t")
	if err := g.AddVertex(Vertex{ID: ""}); !errors.Is(err, ErrValidation) {
		t.Fatalf("empty vertex ID: %v", err)
	}
	g.MustAddVertex(Vertex{ID: "a"})
	if err := g.AddVertex(Vertex{ID: "a"}); !errors.Is(err, ErrValidation) {
		t.Fatalf("dup vertex: %v", err)
	}
	if err := g.AddEdge(Edge{ID: "e", From: "a", To: "b"}); !errors.Is(err, ErrValidation) {
		t.Fatalf("unknown endpoint: %v", err)
	}
	g.MustAddVertex(Vertex{ID: "b"})
	g.MustAddEdge(Edge{ID: "e", From: "a", To: "b", Capacity: 1})
	if err := g.AddEdge(Edge{ID: "e", From: "a", To: "b", Capacity: 1}); !errors.Is(err, ErrValidation) {
		t.Fatalf("dup edge: %v", err)
	}
	if err := g.AddEdge(Edge{ID: "", From: "a", To: "b"}); !errors.Is(err, ErrValidation) {
		t.Fatalf("empty edge ID: %v", err)
	}
}

func TestValidateCatchesBadNumbers(t *testing.T) {
	cases := []func(*Graph){
		func(g *Graph) { g.Vertices[0].Supply = -1 },
		func(g *Graph) { g.Vertices[0].Supply = math.NaN() },
		func(g *Graph) { g.Vertices[2].Demand = math.Inf(1) },
		func(g *Graph) { g.Edges[0].Capacity = -5 },
		func(g *Graph) { g.Edges[0].Loss = 1.0 },
		func(g *Graph) { g.Edges[0].Loss = -0.1 },
		func(g *Graph) { g.Edges[0].Cost = math.NaN() },
		func(g *Graph) { g.Edges[1].From = "gen"; g.Edges[1].To = "gen" },
	}
	for i, mutate := range cases {
		g := line("t")
		mutate(g)
		if err := g.Validate(); !errors.Is(err, ErrValidation) {
			t.Errorf("case %d: Validate = %v, want ErrValidation", i, err)
		}
	}
}

// A vertex with several non-finite fields must always name the same one
// (the first in declaration order), not whichever a map iteration hits.
func TestValidateNamesFirstNonFiniteField(t *testing.T) {
	for i := 0; i < 100; i++ {
		g := line("t")
		g.Vertices[2].Demand = math.Inf(1)
		g.Vertices[2].Price = math.NaN()
		err := g.Validate()
		if err == nil || !strings.HasSuffix(err.Error(), `vertex "load" has non-finite demand`) {
			t.Fatalf("run %d: Validate = %v, want the demand field named", i, err)
		}
	}
}

// Duplicate IDs and endpoints that are not vertices are still caught when
// the slices are edited directly after the index was built.
func TestValidateDetectsEditsAfterIndexing(t *testing.T) {
	cases := map[string]func(*Graph){
		"duplicate vertex": func(g *Graph) { g.Vertices = append(g.Vertices, Vertex{ID: "hub"}) },
		"duplicate edge": func(g *Graph) {
			g.Edges = append(g.Edges, Edge{ID: "g-h", From: "gen", To: "load", Capacity: 1})
		},
		"renamed vertex": func(g *Graph) { g.Vertices[1].ID = "elsewhere" },
	}
	for name, mutate := range cases {
		g := line("t")
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		mutate(g)
		if err := g.Validate(); !errors.Is(err, ErrValidation) {
			t.Errorf("%s: Validate = %v, want ErrValidation", name, err)
		}
	}
}

func TestValidateAllocationFree(t *testing.T) {
	built := line("t")
	var decoded Graph
	data, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"built": built, "decoded": &decoded, "cloned": built.Clone()} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = g.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", name, n)
		}
	}
}

func TestCheckAdequacy(t *testing.T) {
	g := line("t")
	if err := g.CheckAdequacy(); err != nil {
		t.Fatalf("adequate model flagged: %v", err)
	}
	g.Vertices[2].Demand = 500 // exceeds the 90-capacity inbound edge
	err := g.CheckAdequacy()
	if !errors.Is(err, ErrValidation) || !strings.Contains(err.Error(), "load") {
		t.Fatalf("CheckAdequacy = %v, want load violation", err)
	}
	g2 := line("t2")
	g2.Vertices[0].Supply = 1e6
	if err := g2.CheckAdequacy(); !errors.Is(err, ErrValidation) {
		t.Fatalf("supply violation not caught: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := line("orig")
	c := g.Clone()
	c.Edges[0].Capacity = 1
	c.Vertices[0].Supply = 1
	if g.Edges[0].Capacity == 1 || g.Vertices[0].Supply == 1 {
		t.Fatal("Clone shares backing storage with original")
	}
	if c.EdgeIndex("h-l") != 1 {
		t.Fatal("clone lost indexes")
	}
}

func TestSourcesSinksTotals(t *testing.T) {
	g := line("t")
	if got := g.Sources(); len(got) != 1 || got[0] != "gen" {
		t.Fatalf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != "load" {
		t.Fatalf("Sinks = %v", got)
	}
	if g.TotalSupply() != 100 || g.TotalDemand() != 80 {
		t.Fatalf("totals: %v %v", g.TotalSupply(), g.TotalDemand())
	}
}

func TestAssetIDsSorted(t *testing.T) {
	g := line("t")
	ids := g.AssetIDs()
	if len(ids) != 2 || ids[0] != "g-h" || ids[1] != "h-l" {
		t.Fatalf("AssetIDs = %v", ids)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := line("round")
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "round" || len(back.Vertices) != 3 || len(back.Edges) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// Indexes must work after unmarshal.
	if back.EdgeIndex("h-l") != 1 || back.Vertex("gen") == nil {
		t.Fatal("indexes not rebuilt after unmarshal")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped graph invalid: %v", err)
	}
}

func TestStringSummary(t *testing.T) {
	s := line("t").String()
	for _, want := range []string{"3 vertices", "2 edges", "supply 100", "demand 80"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: Clone always round-trips through JSON to an equivalent graph.
func TestQuickCloneJSONEquivalence(t *testing.T) {
	f := func(capA, capB float64, loss float64, demand float64) bool {
		capA = math.Abs(capA)
		capB = math.Abs(capB)
		demand = math.Abs(demand)
		loss = math.Mod(math.Abs(loss), 0.99)
		if math.IsNaN(capA) || math.IsInf(capA, 0) || math.IsNaN(capB) || math.IsInf(capB, 0) ||
			math.IsNaN(loss) || math.IsNaN(demand) || math.IsInf(demand, 0) {
			return true
		}
		g := New("q")
		g.MustAddVertex(Vertex{ID: "s", Supply: capA, SupplyCost: 1})
		g.MustAddVertex(Vertex{ID: "d", Demand: demand, Price: 5})
		g.MustAddEdge(Edge{ID: "e1", From: "s", To: "d", Capacity: capB, Loss: loss})
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Edges[0].Capacity == capB && back.Edges[0].Loss == loss &&
			back.Vertices[0].Supply == capA && back.Vertices[1].Demand == demand
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddVertex should panic on duplicate")
		}
	}()
	g := New("p")
	g.MustAddVertex(Vertex{ID: "a"})
	g.MustAddVertex(Vertex{ID: "a"})
}

func TestMustAddEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddEdge should panic on unknown endpoint")
		}
	}()
	g := New("p")
	g.MustAddEdge(Edge{ID: "e", From: "x", To: "y"})
}
