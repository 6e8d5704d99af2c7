package wal

import "sync"

// ReplaySharded replays the log like Replay, but fans the records out to
// lanes concurrent appliers: route picks a lane in [0, lanes) for each
// record and apply runs on that lane's goroutine.
// Records routed to the same lane are applied in log order; records on
// different lanes are applied concurrently, so they must commute — the
// contract the quorum journal meets by routing each key's records to the
// key's shard lane and everything cross-cutting to one serial lane.
//
// The rec slices handed to apply alias the segment read buffers (never
// mutated after the read), so shipping them across goroutines needs no
// copy. The first apply error stops the replay and is returned; with
// lanes < 2 this degenerates to a plain in-order Replay.
func (l *Log) ReplaySharded(from uint64, lanes int, route func(seq uint64, rec []byte) int, apply func(lane int, seq uint64, rec []byte) error) error {
	if lanes < 2 {
		return l.Replay(from, func(seq uint64, rec []byte) error {
			return apply(0, seq, rec)
		})
	}
	type item struct {
		seq uint64
		rec []byte
	}
	chans := make([]chan item, lanes)
	errc := make(chan error, lanes)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan item, 256)
		wg.Add(1)
		go func(lane int, ch chan item) {
			defer wg.Done()
			for it := range ch {
				if err := apply(lane, it.seq, it.rec); err != nil {
					select {
					case errc <- err:
					default:
					}
					for range ch {
						// Drain so the producer never blocks on a dead lane.
					}
					return
				}
			}
		}(i, chans[i])
	}
	err := l.Replay(from, func(seq uint64, rec []byte) error {
		select {
		case e := <-errc:
			return e
		default:
		}
		chans[route(seq, rec)] <- item{seq: seq, rec: rec}
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err == nil {
		select {
		case err = <-errc:
		default:
		}
	}
	return err
}
