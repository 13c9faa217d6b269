// Package system is the fixture's miniature sharded kernel layer. Its
// polling helpers export PollsCancel facts that the logic package's
// sweeps consume through the driver.
package system

import "sync"

// ParRange splits [0, n) into contiguous chunks and runs body on each,
// concurrently.
func ParRange(n, align, workers int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	step := (n + workers - 1) / workers
	step = (step + align - 1) / align * align
	var wg sync.WaitGroup
	for shard := 0; shard*step < n; shard++ {
		lo, hi := shard*step, (shard+1)*step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			body(shard, lo, hi)
		}(shard, lo, hi)
	}
	wg.Wait()
}

// KnowExtension sweeps the universe a word at a time with polled shard
// bodies, the first of which may stop early once every cell is marked:
// the sweep stays responsive and the function itself becomes a polling
// helper for its callers.
func KnowExtension(n, cells, workers int, stop func() bool, cellOf []int32, out []uint64) { // want-fact:"cancelpoll:PollsCancel"
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		marked := 0
		for id := lo; id < hi && marked < cells; id += 64 {
			if stop != nil && id&4095 == 0 && id > lo && stop() {
				return
			}
			marked += int(cellOf[id])
		}
	})
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id += 64 {
			if stop != nil && id&4095 == 0 && id > lo && stop() {
				return
			}
			out[id/64] = uint64(cellOf[id])
		}
	})
}

// PollStop consults the hook once; sweeps may poll through it instead
// of calling the hook value directly.
func PollStop(stop func() bool) bool { // want-fact:"cancelpoll:PollsCancel"
	return stop != nil && stop()
}

// UnpolledExtension has the hook in scope but never consults it inside
// the sweeps, point-wise or a word at a time: a cancelled query runs the
// whole range anyway.
func UnpolledExtension(n, workers int, stop func() bool, out []uint64) {
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ { // want `shard sweep over lo:hi without a cancel poll`
			out[id/64] |= 1 << uint(id%64)
		}
	})
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id += 64 { // want `shard sweep over lo:hi without a cancel poll`
			out[id/64] = 0
		}
	})
}

// Retry is a condition-less loop with no hook anywhere in reach (the
// Gate CAS pattern): exempt by construction.
func Retry(try func(int) bool) int {
	n := 0
	for {
		if try(n) {
			return n
		}
		n++
	}
}
