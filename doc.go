// Package upcxx is a Go reproduction of "UPC++: A PGAS Extension for
// C++" (Zheng, Kamil, Driscoll, Shan, Yelick — IPDPS 2014): a
// library-based Partitioned Global Address Space programming system with
// shared scalars and block-cyclic shared arrays, global pointers with
// phase-free arithmetic, dynamic global memory management, one-sided bulk
// transfers with events, asynchronous remote function invocation with
// futures and X10-style finish, global locks, collectives, and a
// Titanium-style multidimensional domain/array library (subpackage
// re-exports below).
//
// Where C++ UPC++ maps one rank to one OS process over GASNet, this
// library maps one rank to one goroutine over an in-process active
// message engine, and replaces the paper's supercomputers with a LogGP
// virtual-time model so the evaluation's 32K-rank experiments run on one
// machine (see DESIGN.md). The programming model is the paper's:
//
//	upcxx.Run(upcxx.Config{Ranks: 4}, func(me *upcxx.Rank) {
//		sa := upcxx.NewSharedArray[int64](me, 100, 1)
//		sa.Set(me, me.ID(), int64(me.ID()))
//		me.Barrier()
//
//		upcxx.Finish(me, func() {
//			upcxx.Async(me, upcxx.On(2), func(tgt *upcxx.Rank) {
//				// runs on rank 2
//			})
//		})
//	})
//
// Completion is futures-first, the direction the UPC++ lineage took
// after the paper: every asynchronous operation can resolve a
// chainable Future[T] (ReadAsync, WriteAsync, CopyAsync,
// ReadSliceAsync, AsyncFuture, AsyncTaskFuture), continuations attach
// with Then/ThenAsync and compose with WhenAll/WhenAny, and a
// surrounding Finish waits for whole continuation chains. Operations
// complete into any completion object through one seam (Completer):
// a *Promise (NewPromise/Finalize), a legacy *Event, an Onto(...)
// combination, or the enclosing Finish via ToFinish(); a nil one means
// the rank's implicit handle for copies, which AsyncCopyFence waits
// on. A Promise counts with an Event, so both follow one rule: it
// fires once every registered operation completes. Outstanding
// non-blocking operations are unordered, and their buffers stay
// untouched until completion. See DESIGN.md §3 "Completion model" for
// execution-context and quiescence rules.
//
// The API is a facade over internal/core (the paper's programming
// constructs) and internal/ndarray (the multidimensional array library);
// both are fully documented at their definitions.
package upcxx
