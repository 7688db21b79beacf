package segstore

import "testing"

// FuzzCacheChains replays a byte-coded stream of operations on two or three
// caches over one store and checks the books after every step: the global
// walk (Store.CheckMarking — every bin and depot magazine holds whole
// chains of its grain) marks exactly the segments the harness holds free,
// Free() + held + lent == pool, and Store.Lent() == lent. The store keeps
// no per-segment state, so the harness keeps its own: each segment is free,
// held or lent, and only a free one may be handed out. On one goroutine an AllocN must never come up short while Avail()
// covers it, whatever bins and grain stacks the segments sit in. Every step
// ends with each cache's Publish, as a critical section would.
//
// Every chain goes back built by chainUp, so the bins and grain stacks hold
// well-formed chains, and a whole chain handed out by AllocChain must be one:
// its links run from head to tail over exactly its grain.
//
// data[0] picks the cache count and the magazine size; then 3-byte records
// op, a, b:
//
//	op%8 == 0: AllocN of 1 + b%(MaxGrain+4) segments on cache a
//	op%8 == 1: FreeN held chain a on cache b
//	op%8 == 2: Lend held chain a through cache b
//	op%8 == 3: ReturnLent lent chain a through cache b
//	op%8 == 4: return up to 1 + b%4 lent chains from a on as one batch, with
//	           their common grain (odd b: grain 0, as a mixed batch)
//	op%8 == 5: Flush cache a
//	op%8 == 6: AllocN of one segment on cache a, as the queue's
//	           single-segment commands allocate
//	op%8 == 7: AllocChain of 1 + b%(MaxGrain+4) segments on cache a, as the
//	           queue's packet commands ask first; a miss must be real (no
//	           grain, or an empty bin and grain stack)
func FuzzCacheChains(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x17\x00\x01\x17\x02\x00\x00\x01\x00\x00\x00\x00\x17"))
	f.Add([]byte("\x01\x00\x00\x08\x00\x01\x08\x02\x00\x00\x02\x01\x00\x04\x00\x00\x00\x02\x08\x05\x01\x00"))
	f.Add([]byte("\x02\x00\x02\x1f\x06\x00\x00\x00\x01\x1f\x01\x00\x02\x05\x02\x00\x00\x00\x23"))

	f.Fuzz(replayCacheChains)
}

// replayCacheChains is FuzzCacheChains' body.
func replayCacheChains(t *testing.T, data []byte) {
	const pool = 160
	{
		if len(data) == 0 {
			return
		}
		st, err := New(Config{NumSegments: pool, MagazineSize: 4 + int(data[0]>>1)%13})
		if err != nil {
			t.Fatal(err)
		}
		caches := make([]*Cache, 2+int(data[0])%2)
		for i := range caches {
			caches[i] = st.NewCache()
		}
		v := st.View()
		type chain struct {
			segs []int32
			lent bool
		}
		var held []chain
		heldSegs, lentSegs := 0, 0
		const (
			free uint8 = iota
			queued
			lent
		)
		state := make([]uint8, pool) // every segment starts free
		setState := func(segs []int32, s uint8) {
			for _, x := range segs {
				state[x] = s
			}
		}
		// pick returns the index of the k-th chain (mod their count) whose
		// lent mark is lent, or -1.
		pick := func(k byte, lent bool) int {
			var idx []int
			for i, ch := range held {
				if ch.lent == lent {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				return -1
			}
			return idx[int(k)%len(idx)]
		}
		drop := func(i int) {
			ch := held[i]
			held = append(held[:i], held[i+1:]...)
			if ch.lent {
				lentSegs -= len(ch.segs)
			} else {
				heldSegs -= len(ch.segs)
			}
		}
		// take allocates n segments on c.
		take := func(c *Cache, n int) {
			avail := c.Avail()
			dst := make([]int32, n)
			got := c.AllocN(dst)
			if avail >= n && got != n {
				t.Fatalf("allocating %d = %d with Avail %d", n, got, avail)
			}
			for _, s := range dst[:got] {
				if state[s] != free {
					t.Fatalf("allocated segment %d in state %d", s, state[s])
				}
			}
			if got == 0 {
				return
			}
			setState(dst[:got], queued)
			held = append(held, chain{segs: dst[:got]})
			heldSegs += got
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, a, b := data[i]%8, data[i+1], data[i+2]
			c := caches[int(a)%len(caches)]
			switch op {
			case 0:
				take(c, 1+int(b)%(MaxGrain+4))
			case 1:
				if k := pick(a, false); k >= 0 {
					segs := held[k].segs
					drop(k)
					setState(segs, free)
					head, tail := chainUp(v, segs)
					caches[int(b)%len(caches)].FreeN(head, tail, int32(len(segs)))
				}
			case 2:
				if k := pick(a, false); k >= 0 {
					ch := &held[k]
					caches[int(b)%len(caches)].Lend(int32(len(ch.segs)))
					setState(ch.segs, lent)
					ch.lent = true
					heldSegs -= len(ch.segs)
					lentSegs += len(ch.segs)
				}
			case 3:
				if k := pick(a, true); k >= 0 {
					segs := held[k].segs
					drop(k)
					setState(segs, free)
					head, tail := chainUp(v, segs)
					caches[int(b)%len(caches)].ReturnLent(head, tail, int32(len(segs)))
				}
			case 4:
				var batch []int32
				grain := int32(-1)
				for n := 1 + int(b)%4; n > 0; n-- {
					k := pick(a, true)
					if k < 0 {
						break
					}
					segs := held[k].segs
					drop(k)
					setState(segs, free)
					chainUp(v, segs)
					if grain != -1 && grain != int32(len(segs)) {
						grain = 0
					} else {
						grain = int32(len(segs))
					}
					batch = append(batch, segs...)
				}
				if len(batch) > 0 {
					if b&1 != 0 {
						grain = 0
					}
					relink(v.Next, batch)
					c.ReturnLentChains(batch[0], batch[len(batch)-1], int32(len(batch)), grain)
				}
			case 5:
				c.Flush()
			case 6:
				take(c, 1)
			case 7:
				n := int32(1 + int(b)%(MaxGrain+4))
				head, tail, ok := c.AllocChain(n)
				if !ok {
					if g := grainOf(n); g != 0 && (c.bins[g].n > 0 || st.depot[g].Load()>>32 != 0) {
						t.Fatalf("step %d: AllocChain(%d) missed with %d binned and stack %#x", i/3, n, c.bins[g].n, st.depot[g].Load())
					}
					break
				}
				segs := make([]int32, 0, n)
				for s := head; len(segs) < int(n); s = v.Next[s] {
					if state[s] != free {
						t.Fatalf("step %d: AllocChain(%d) handed out segment %d in state %d", i/3, n, s, state[s])
					}
					segs = append(segs, s)
				}
				if segs[n-1] != tail {
					t.Fatalf("step %d: AllocChain(%d) tail %d, its links end at %d", i/3, n, tail, segs[n-1])
				}
				setState(segs, queued)
				held = append(held, chain{segs: segs})
				heldSegs += int(n)
			}
			for _, c := range caches {
				c.Publish()
			}
			seen := make([]bool, pool)
			if err := st.CheckMarking(seen); err != nil {
				t.Fatalf("step %d (op %d): %v", i/3, op, err)
			}
			for s, met := range seen {
				if met != (state[s] == free) {
					t.Fatalf("step %d (op %d): the free walk marked segment %d %v, its state is %d", i/3, op, s, met, state[s])
				}
			}
			if free := st.Free(); free+heldSegs+lentSegs != pool {
				t.Fatalf("step %d (op %d): %d free + %d held + %d lent != %d", i/3, op, free, heldSegs, lentSegs, pool)
			}
			if st.Lent() != lentSegs {
				t.Fatalf("step %d (op %d): Lent = %d, %d segments lent", i/3, op, st.Lent(), lentSegs)
			}
		}
	}
}
