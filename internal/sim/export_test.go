package sim

// ActivityState returns copies of the activity masks of n: every
// router's waitQ, outQ and srcQ mask words in router order, and every
// shard's link bitset in shard order.
func ActivityState(n *Network) (routers []uint64, links [][]uint64) {
	for i := range n.routers {
		routers = append(routers, n.routers[i].act...)
	}
	for i := range n.shards {
		links = append(links, append([]uint64(nil), n.shards[i].linkAct...))
	}
	return routers, links
}
