package asim

import "barterdist/internal/swarm"

// BlockCounts is the per-block replication count both async
// Rarest-First protocols, AsyncRandomized and bt.Protocol, rank blocks
// by. Size starts every block at the server's copy; the protocols'
// hooks then add one per delivery, subtract a crashed or departing
// node's holdings and add a rejoining node's back (none after a wipe,
// and none for an open-system arrival).
type BlockCounts struct{ r swarm.Rarity }

// Size sets up the counts for s's run, once; later calls do nothing.
func (c *BlockCounts) Size(s *State) {
	if c.r.Count != nil {
		return
	}
	c.r.Count = make([]int, s.K())
	for b := range c.r.Count {
		c.r.Count[b] = 1
	}
}

// Rarity returns the counts as the rank swarm.PickBlock takes.
func (c *BlockCounts) Rarity() *swarm.Rarity { return &c.r }

// Deliver counts one more copy of block b.
func (c *BlockCounts) Deliver(b int) { c.r.Count[b]++ }

// Leave drops v's holdings from the counts.
func (c *BlockCounts) Leave(v int, s *State) { s.Blocks(v).AccumulateCounts(c.r.Count, -1) }

// Join counts v's holdings again.
func (c *BlockCounts) Join(v int, s *State) { s.Blocks(v).AccumulateCounts(c.r.Count, 1) }
