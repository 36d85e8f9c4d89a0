package schedule

import (
	"fmt"

	"barterdist/internal/bitset"
	"barterdist/internal/graph"
	"barterdist/internal/simulate"
)

// BinomialPipeline is the paper's optimal cooperative schedule
// (Section 2.3), executed through its hypercube embedding:
//
//   - Nodes are packed onto the vertices of the largest hypercube with
//     2^r <= n; the server is alone at vertex 0 and every other vertex
//     hosts one or two clients (Section 2.3.3). When n is a power of two
//     every vertex hosts exactly one node and the algorithm reduces to
//     the pure hypercube rules of Section 2.3.2.
//   - During tick t, every vertex communicates across hypercube
//     dimension (t-1) mod r, dimensions counted from the most
//     significant bit.
//   - The server vertex transmits block B_min(t,k); every other vertex
//     transmits the highest-index block it holds.
//   - Within a two-client vertex, the member holding the outgoing block
//     transmits it, the other member receives the incoming block, and
//     whichever member has a spare upload forwards a block its partner
//     lacks across the intra-vertex link.
//
// Transfers whose receiver already holds the block are suppressed; this
// never changes the completion time and keeps traces clean.
//
// Completion time: k - 1 + r ticks when n = 2^r, and at most
// k + ⌈log2(n-1)⌉ in general — both optimal (Theorems in Section 2).
type BinomialPipeline struct {
	// The schedule is fully determined at construction; the identity
	// caches below are deterministic functions of the first tick's
	// state, so a fresh instance replays identically and checkpointing
	// is stateless.
	simulate.StatelessSchedulerState

	assign *graph.PairedHypercubeAssignment
	k      int
	// nodeID maps logical instance node -> engine node. Logical node 0
	// is always the server (engine node 0); this indirection lets
	// MultiServer run one instance per client group.
	nodeID []int32
	// blockID maps logical block -> engine block.
	blockID []int32

	// identityBlocks is set on the first tick when blockID is the
	// identity map over the whole file, enabling bitset fast paths.
	identityBlocks bool
	identityKnown  bool

	// scratch, reused across ticks.
	union *bitset.Set
	plans []vertexPlan // one per hypercube vertex
}

var _ simulate.Scheduler = (*BinomialPipeline)(nil)

// NewBinomialPipeline returns the schedule for n nodes (server included)
// and k blocks with the identity node and block mapping.
func NewBinomialPipeline(n, k int) (*BinomialPipeline, error) {
	if k < 1 {
		return nil, fmt.Errorf("schedule: BinomialPipeline requires k >= 1 (got %d)", k)
	}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	blocks := make([]int32, k)
	for i := range blocks {
		blocks[i] = int32(i)
	}
	return NewBinomialPipelineOn(nodes, blocks)
}

// NewBinomialPipelineOn returns a schedule restricted to the given engine
// nodes (nodeID[0] must be the server) and engine blocks. It is the
// building block for MultiServer.
func NewBinomialPipelineOn(nodeID []int32, blockID []int32) (*BinomialPipeline, error) {
	if len(nodeID) < 2 {
		return nil, fmt.Errorf("schedule: BinomialPipeline requires at least 2 nodes (got %d)", len(nodeID))
	}
	if len(blockID) < 1 {
		return nil, fmt.Errorf("schedule: BinomialPipeline requires at least 1 block")
	}
	if nodeID[0] != 0 {
		return nil, fmt.Errorf("schedule: nodeID[0] must be the server (node 0), got %d", nodeID[0])
	}
	assign, err := graph.NewPairedHypercubeAssignment(len(nodeID))
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	ids := make([]int32, len(nodeID))
	copy(ids, nodeID)
	blocks := make([]int32, len(blockID))
	copy(blocks, blockID)
	return &BinomialPipeline{assign: assign, k: len(blocks), nodeID: ids, blockID: blocks}, nil
}

// Dimension returns the hypercube dimension r of the embedding.
func (bp *BinomialPipeline) Dimension() int { return bp.assign.R }

// vertexPlan captures one vertex's decisions for the current tick.
type vertexPlan struct {
	out       int // outgoing logical block, -1 if none
	sender    int // logical node transmitting out, -1 if none
	extSent   bool
	extRecvBy int // logical node receiving externally, -1 if none
}

// Tick implements simulate.Scheduler.
func (bp *BinomialPipeline) Tick(t int, s *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	r := bp.assign.R
	verts := 1 << uint(r)
	if bp.union == nil {
		bp.union = bitset.New(s.K())
	}
	if !bp.identityKnown {
		bp.identityKnown = true
		bp.identityBlocks = bp.k == s.K()
		for i, b := range bp.blockID {
			if int(b) != i {
				bp.identityBlocks = false
				break
			}
		}
	}
	dim := (t - 1) % r
	bit := 1 << uint(r-1-dim)

	// has reports whether logical node ln holds logical block lb.
	has := func(ln, lb int) bool { return s.Has(int(bp.nodeID[ln]), int(bp.blockID[lb])) }

	// Phase 1: each vertex designates its outgoing block and transmitter.
	if len(bp.plans) != verts {
		bp.plans = make([]vertexPlan, verts)
	}
	plans := bp.plans
	for v := 0; v < verts; v++ {
		p := vertexPlan{out: -1, sender: -1, extRecvBy: -1}
		if v == 0 {
			// Server rule: transmit B_t, or B_k once the file is drained.
			p.out = min(t, bp.k) - 1
			p.sender = 0
		} else {
			for _, ln := range bp.assign.NodesAt[v] {
				if b := bp.maxBlock(s, ln); b > p.out {
					p.out = b
					p.sender = ln
				}
			}
		}
		plans[v] = p
	}

	// Phase 2: external transfers across the tick's dimension.
	for v := 0; v < verts; v++ {
		w := v ^ bit
		from := &plans[v]
		if from.out < 0 {
			continue
		}
		to := &plans[w]
		recv := bp.pickReceiver(w, to, from.out, has)
		if recv < 0 {
			continue // every candidate already holds the block
		}
		dst = append(dst, simulate.Transfer{
			From:  bp.nodeID[from.sender],
			To:    bp.nodeID[recv],
			Block: bp.blockID[from.out],
		})
		from.extSent = true
		to.extRecvBy = recv
	}

	// Phase 3: intra-vertex transfers within two-client vertices. A
	// member with a free upload forwards to a partner with a free
	// download the highest block the partner lacks.
	for v := 1; v < verts; v++ {
		members := bp.assign.NodesAt[v]
		if len(members) != 2 {
			continue
		}
		p := &plans[v]
		for idx := 0; idx < 2; idx++ {
			a, b := members[idx], members[1-idx]
			if p.extSent && p.sender == a {
				continue // a's upload is consumed by the external send
			}
			if p.extRecvBy == b {
				continue // b's download is consumed by the external receive
			}
			if blk := bp.surplus(s, a, b); blk >= 0 {
				dst = append(dst, simulate.Transfer{
					From:  bp.nodeID[a],
					To:    bp.nodeID[b],
					Block: bp.blockID[blk],
				})
				break // one intra-vertex transfer per tick suffices
			}
		}
	}
	return dst, nil
}

// maxBlock returns the highest logical block held by logical node ln, or
// -1 if it holds none of this instance's blocks.
func (bp *BinomialPipeline) maxBlock(s *simulate.State, ln int) int {
	have := s.Blocks(int(bp.nodeID[ln]))
	if bp.identityBlocks {
		return have.Max()
	}
	for lb := bp.k - 1; lb >= 0; lb-- {
		if have.Has(int(bp.blockID[lb])) {
			return lb
		}
	}
	return -1
}

// surplus returns the highest logical block that a holds and b lacks, or
// -1 if none.
func (bp *BinomialPipeline) surplus(s *simulate.State, a, b int) int {
	haveA := s.Blocks(int(bp.nodeID[a]))
	haveB := s.Blocks(int(bp.nodeID[b]))
	if bp.identityBlocks {
		return haveA.MaxDiff(haveB)
	}
	for lb := bp.k - 1; lb >= 0; lb-- {
		id := int(bp.blockID[lb])
		if haveA.Has(id) && !haveB.Has(id) {
			return lb
		}
	}
	return -1
}

// pickReceiver chooses which member of vertex w receives block lb,
// following the paper's rule: the member not designated to transmit.
// Members already holding the block are skipped; -1 means nobody needs
// it.
func (bp *BinomialPipeline) pickReceiver(w int, plan *vertexPlan, lb int, has func(ln, lb int) bool) int {
	members := bp.assign.NodesAt[w]
	if w == 0 {
		return -1 // the server needs nothing
	}
	if len(members) == 1 {
		if has(members[0], lb) {
			return -1
		}
		return members[0]
	}
	// Prefer the member not transmitting externally.
	first, second := members[0], members[1]
	if plan.sender == first {
		first, second = second, first
	}
	if !has(first, lb) {
		return first
	}
	if !has(second, lb) {
		return second
	}
	return -1
}

// MultiServer implements the higher-server-bandwidth strategy of Section
// 2.3.4: a server with upload capacity m·U is split into m virtual
// servers, each running an independent Binomial Pipeline over an
// (almost) equal share of the clients. Run it with
// simulate.Config{ServerUploadCap: m}.
func MultiServer(n, k, m int) (simulate.Scheduler, error) {
	if m < 1 {
		return nil, fmt.Errorf("schedule: MultiServer requires m >= 1 (got %d)", m)
	}
	clients := n - 1
	if clients < m {
		return nil, fmt.Errorf("schedule: MultiServer needs at least one client per virtual server (n=%d, m=%d)", n, m)
	}
	blocks := make([]int32, k)
	for i := range blocks {
		blocks[i] = int32(i)
	}
	subs := make([]simulate.Scheduler, 0, m)
	next := 1
	for g := 0; g < m; g++ {
		size := clients / m
		if g < clients%m {
			size++
		}
		ids := make([]int32, 0, size+1)
		ids = append(ids, 0)
		for i := 0; i < size; i++ {
			ids = append(ids, int32(next))
			next++
		}
		sub, err := NewBinomialPipelineOn(ids, blocks)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return Compose(subs...), nil
}

// Compose runs several schedulers in the same simulation, concatenating
// their per-tick transfers. The caller is responsible for ensuring the
// combined schedule respects the engine's bandwidth caps.
func Compose(scheds ...simulate.Scheduler) simulate.Scheduler {
	return simulate.SchedulerFunc(func(t int, s *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		var err error
		for _, sc := range scheds {
			dst, err = sc.Tick(t, s, dst)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	})
}
