package mpi

import (
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/sim"
)

func mpiCfg(ranks int) core.Config {
	return core.Config{Ranks: ranks, Machine: sim.Local, SW: sim.SWMPI}
}

func TestSendRecvBasic(t *testing.T) {
	core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		if me.ID() == 0 {
			Send(c, 1, 7, []int64{10, 20, 30})
		} else {
			buf := make([]int64, 3)
			Recv(c, 0, 7, buf)
			if buf[0] != 10 || buf[2] != 30 {
				t.Errorf("recv got %v", buf)
			}
		}
		c.Barrier()
	})
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Send arrives before the receive is posted.
	core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		if me.ID() == 0 {
			Send(c, 1, 1, []int32{42})
			c.Barrier() // ensure delivery before rank 1 posts
		} else {
			c.Barrier()
			buf := make([]int32, 1)
			Recv(c, 0, 1, buf)
			if buf[0] != 42 {
				t.Errorf("unexpected-queue recv got %d", buf[0])
			}
		}
		c.Barrier()
	})
}

func TestTagMatching(t *testing.T) {
	core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		if me.ID() == 0 {
			Send(c, 1, 5, []int32{5})
			Send(c, 1, 6, []int32{6})
		} else {
			a, b := make([]int32, 1), make([]int32, 1)
			// Post in reverse tag order: matching must respect tags.
			r6 := Irecv(c, 0, 6, b)
			r5 := Irecv(c, 0, 5, a)
			c.Wait(r5, r6)
			if a[0] != 5 || b[0] != 6 {
				t.Errorf("tag matching: got %d,%d", a[0], b[0])
			}
		}
		c.Barrier()
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	core.Run(mpiCfg(3), func(me *core.Rank) {
		c := New(me)
		if me.ID() != 0 {
			Send(c, 0, me.ID()*10, []int32{int32(me.ID())})
		} else {
			got := map[int32]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]int32, 1)
				Recv(c, AnySource, AnyTag, buf)
				got[buf[0]] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("wildcard recv missed senders: %v", got)
			}
		}
		c.Barrier()
	})
}

func TestNonOvertaking(t *testing.T) {
	// Same signature messages must be received in send order.
	core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		if me.ID() == 0 {
			for i := int32(0); i < 10; i++ {
				Send(c, 1, 3, []int32{i})
			}
		} else {
			for i := int32(0); i < 10; i++ {
				buf := make([]int32, 1)
				Recv(c, 0, 3, buf)
				if buf[0] != i {
					t.Errorf("message %d overtaken by %d", i, buf[0])
				}
			}
		}
		c.Barrier()
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	// Above the eager threshold the protocol switches to rendezvous; the
	// payload must still arrive intact and the sender must complete.
	core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		n := sim.Local.EagerBytes + 4096
		if me.ID() == 0 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 7)
			}
			req := c.Isend(1, 9, data)
			c.Wait(req)
			if !req.done {
				t.Error("rendezvous sender never completed")
			}
		} else {
			buf := make([]byte, n)
			c.Wait(c.Irecv(0, 9, buf))
			for i := 0; i < n; i += 997 {
				if buf[i] != byte(i*7) {
					t.Errorf("rendezvous payload corrupt at %d", i)
				}
			}
		}
		c.Barrier()
	})
}

func TestRendezvousCostsMoreThanEager(t *testing.T) {
	run := func(n int) float64 {
		st := core.Run(mpiCfg(2), func(me *core.Rank) {
			c := New(me)
			if me.ID() == 0 {
				c.Wait(c.Isend(1, 1, make([]byte, n)))
			} else {
				c.Wait(c.Irecv(0, 1, make([]byte, n)))
			}
		})
		return st.VirtualNs
	}
	eager := run(sim.Local.EagerBytes - 64)
	rdvz := run(sim.Local.EagerBytes + 64)
	if rdvz <= eager {
		t.Errorf("rendezvous (%v ns) should cost more than eager (%v ns) at the threshold", rdvz, eager)
	}
}

func TestHaloExchangePattern(t *testing.T) {
	// The LULESH pattern in miniature: every rank exchanges with both
	// neighbors using Isend/Irecv/Waitall.
	core.Run(mpiCfg(4), func(me *core.Rank) {
		c := New(me)
		p := me.Ranks()
		left, right := (me.ID()+p-1)%p, (me.ID()+1)%p
		out := []int64{int64(me.ID())}
		inL, inR := make([]int64, 1), make([]int64, 1)
		reqs := []*Request{
			Irecv(c, left, 0, inL),
			Irecv(c, right, 1, inR),
			Isend(c, right, 0, out),
			Isend(c, left, 1, out),
		}
		c.Wait(reqs...)
		if inL[0] != int64(left) || inR[0] != int64(right) {
			t.Errorf("halo exchange: got %d,%d want %d,%d", inL[0], inR[0], left, right)
		}
		c.Barrier()
	})
}

func TestCollectives(t *testing.T) {
	core.Run(mpiCfg(4), func(me *core.Rank) {
		c := New(me)
		sum := c.Allreduce(float64(me.ID()+1), func(a, b float64) float64 { return a + b })
		if sum != 10 {
			t.Errorf("Allreduce = %v, want 10", sum)
		}
		mx := c.AllreduceI(int64(me.ID()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if mx != 3 {
			t.Errorf("AllreduceI max = %d", mx)
		}
		all := c.Allgather(int64(me.ID() * 2))
		for i, v := range all {
			if v != int64(i*2) {
				t.Errorf("Allgather[%d] = %d", i, v)
			}
		}
	})
}

func TestMPIMatchingCostCharged(t *testing.T) {
	// The same byte exchange must cost more virtual time under MPI's
	// two-sided profile than under one-sided UPC++ puts — the Fig 8
	// driver.
	mpiTime := core.Run(mpiCfg(2), func(me *core.Rank) {
		c := New(me)
		for i := 0; i < 50; i++ {
			if me.ID() == 0 {
				c.Wait(c.Isend(1, 0, make([]byte, 1024)))
			} else {
				c.Wait(c.Irecv(0, 0, make([]byte, 1024)))
			}
		}
	}).VirtualNs
	oneSided := core.Run(core.Config{Ranks: 2, Machine: sim.Local, SW: sim.SWUPCXX},
		func(me *core.Rank) {
			buf := core.Allocate[byte](me, me.ID(), 1024)
			all := core.TeamAllGather(me.World(), buf)
			if me.ID() == 0 {
				for i := 0; i < 50; i++ {
					core.AsyncCopy(me, buf, all[1], 1024, nil)
					core.AsyncCopyFence(me)
				}
			}
		}).VirtualNs
	if mpiTime <= oneSided {
		t.Errorf("two-sided %v ns should exceed one-sided %v ns", mpiTime, oneSided)
	}
}
