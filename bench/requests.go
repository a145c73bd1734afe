package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tablehound/internal/datagen"
	"tablehound/internal/discover"
	"tablehound/internal/server"
	"tablehound/internal/table"
)

// baseK is the result count every request asks for. A class that has
// used every distinct seed of the lake starts over with k+1, so a
// cache key never repeats however far a run gets; on the lakes and
// speeds of the seed commit most of a window is served at baseK.
const baseK = 10

// hotPool is the number of distinct requests per class that the
// cached workload draws from; 8 classes x 64 stay far below the
// server's 4096 cache entries, so nothing is evicted.
const hotPool = 64

// request is one generated request: the typed body (kept so the
// direct answer can be computed from exactly what was sent), its JSON
// bytes and where it goes.
type request struct {
	class int
	path  string
	body  []byte
	// spec is a server.JoinRequest, UnionRequest, KeywordRequest or
	// DiscoverRequest.
	spec any
	// truth is the ground-truth key of a join or union request: the
	// query column's key or the query table's ID.
	truth string
}

// seedPools are, per class, the distinct request seeds of a lake in a
// seeded order.
type seedPools struct {
	gen     *datagen.Lake
	byID    map[string]*table.Table
	columns []string // domain-backed column keys
	tables  []string
	perm    [numClasses][]int
	// growK makes a class that wraps its pool ask for one more result
	// per pass, which keeps every cache key new.
	growK bool
}

// newSeedPools derives the pools from the lake's ground truth. Query
// columns are the template-backed ones: noise and numeric columns
// join nothing, and mixing them in would split each join class into a
// fast and a slow population with the median between the two.
func newSeedPools(gen *datagen.Lake, seed int64) *seedPools {
	p := &seedPools{gen: gen, byID: make(map[string]*table.Table, len(gen.Tables)), growK: true}
	for key := range gen.ColumnDomain {
		p.columns = append(p.columns, key)
	}
	sort.Strings(p.columns)
	for _, t := range gen.Tables {
		p.tables = append(p.tables, t.ID)
		p.byID[t.ID] = t
	}
	sort.Strings(p.tables)
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < numClasses; c++ {
		p.perm[c] = rng.Perm(p.poolSize(c))
	}
	return p
}

// discoverVariants is relation x predicate kind.
const discoverVariants = 9

func (p *seedPools) poolSize(class int) int {
	switch class {
	case clsJoinOverlap, clsJoinContainment, clsKeyword:
		return len(p.columns)
	case clsDiscover:
		return len(p.tables) * discoverVariants
	default:
		return len(p.tables)
	}
}

func (p *seedPools) column(key string) *table.Column {
	id, name := table.SplitColumnKey(key)
	return p.byID[id].Column(name)
}

// domainColumn returns the i-th template-backed column of t (modulo
// their count).
func (p *seedPools) domainColumn(t *table.Table, i int) *table.Column {
	var cols []*table.Column
	for _, c := range t.Columns {
		if _, ok := p.gen.ColumnDomain[table.ColumnKey(t.ID, c.Name)]; ok {
			cols = append(cols, c)
		}
	}
	return cols[i%len(cols)]
}

// make builds the n-th request of a class: seed n modulo the pool,
// and, under growK, k grown by the number of completed passes over it.
func (p *seedPools) make(class, n int) request {
	size := p.poolSize(class)
	idx, k := p.perm[class][n%size], baseK
	if p.growK {
		k += n / size
	}
	r := request{class: class}
	switch class {
	case clsJoinOverlap, clsJoinContainment:
		key := p.columns[idx]
		req := server.JoinRequest{Values: p.column(key).Values, K: k}
		if class == clsJoinContainment {
			req.Mode, req.Threshold = "containment", 0.5
		}
		r.path, r.spec, r.truth = "/v1/join", req, key
	case clsUnionTUS, clsUnionSantos, clsUnionStarmie, clsUnionD3L:
		method := [...]string{"tus", "santos", "starmie", "d3l"}[class-clsUnionTUS]
		id := p.tables[idx]
		r.path, r.spec, r.truth = "/v1/union", server.UnionRequest{TableID: id, K: k, Method: method}, id
	case clsKeyword:
		// A table ingested from CSV is named after its file, so its name
		// tokens are its ID's; a header token makes the query specific to
		// one column of it.
		id, name := table.SplitColumnKey(p.columns[idx])
		q := strings.ReplaceAll(id+" "+name, "_", " ")
		r.path, r.spec = "/v1/keyword", server.KeywordRequest{Query: q, K: k}
	case clsDiscover:
		r.path, r.spec = "/v1/discover", p.discover(p.tables[idx/discoverVariants], idx%discoverVariants, k)
	}
	body, err := json.Marshal(r.spec)
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	r.body = body
	return r
}

// discover builds a predicated discovery request seeded by a lake
// table. The predicates come from the seed table itself, so they admit
// a non-empty part of the lake and differ from seed to seed.
func (p *seedPools) discover(id string, variant, k int) server.DiscoverRequest {
	t := p.byID[id]
	col := p.domainColumn(t, variant)
	req := server.DiscoverRequest{TableID: id, K: k}
	switch variant % 3 {
	case 0:
		req.Relation, req.Column = "join", col.Name
	case 1:
		req.Relation = "union"
	default:
		req.Relation = "any"
	}
	switch variant / 3 {
	case 0:
		req.Predicates = discover.Predicates{ColumnNames: []string{col.Name}, MinRows: t.NumRows() / 2}
	case 1:
		tpl, _, _ := strings.Cut(id, "_")
		req.Predicates = discover.Predicates{Keywords: tpl}
	default:
		req.Predicates = discover.Predicates{Values: []string{col.Values[0]}}
	}
	return req
}

// schedule arranges n request slots by class: every block of 32 holds
// exactly the class weights, and each block is shuffled on its own.
// The two clients take neighbouring slots, so a fixed arrangement would
// decide which classes run side by side for a whole run (a keyword
// query beside a D3L scan is not the same query as beside another
// keyword query) and make a class's median a property of the seed.
func schedule(seed int64, n int) []int {
	var block []int
	for c, w := range classWeights {
		for i := 0; i < w; i++ {
			block = append(block, c)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	slots := make([]int, 0, n+len(block))
	for len(slots) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		slots = append(slots, block...)
	}
	return slots[:n]
}

// stream is the request sequence of one run: order indexes into reqs.
type stream struct {
	reqs  []request
	order []int32
	hash  string
}

// coldStream generates n requests none of which repeats an earlier
// one.
func coldStream(p *seedPools, seed int64, n int) *stream {
	s := &stream{reqs: make([]request, n), order: make([]int32, n)}
	var used [numClasses]int
	for i, c := range schedule(seed, n) {
		s.reqs[i] = p.make(c, used[c])
		used[c]++
		s.order[i] = int32(i)
	}
	s.hash = s.digest()
	return s
}

// hotStream generates hotPool requests per class and an n-long
// sequence drawn from them with the class weights: reqs[c*hotPool+j]
// is the j-th hot request of class c.
func hotStream(p *seedPools, seed int64, n int) *stream {
	s := &stream{order: make([]int32, n)}
	for c := 0; c < numClasses; c++ {
		for j := 0; j < hotPool; j++ {
			s.reqs = append(s.reqs, p.make(c, j%p.poolSize(c)))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x407))
	for i, c := range schedule(seed, n) {
		s.order[i] = int32(c*hotPool + rng.Intn(hotPool))
	}
	s.hash = s.digest()
	return s
}

// digest fingerprints the stream: every distinct request's path and
// bytes, then the sending order.
func (s *stream) digest() string {
	h := sha256.New()
	for i := range s.reqs {
		r := &s.reqs[i]
		fmt.Fprintf(h, "%s %d\n", r.path, len(r.body))
		h.Write(r.body)
	}
	for _, i := range s.order {
		h.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
