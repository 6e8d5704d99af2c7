package transport

import "testing"

// The mailbox is FIFO, reports its depth, enqueues without allocating
// once drained queues have sized its backing array, and does not let a
// backlog that never drains pin every event it ever held.
func TestMailboxReusesItsBackingArray(t *testing.T) {
	m := newMailbox()
	next := 0 // tag of the next event to come out
	put := func(tag int) { m.put(procEvent{kind: pevMessage, msg: tag}) }
	take := func() {
		t.Helper()
		ev, ok := m.take()
		if !ok || ev.msg.(int) != next {
			t.Fatalf("took %v (ok=%v), want event %d", ev.msg, ok, next)
		}
		next++
	}

	// Steady state: bursts that drain.
	in := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			put(in)
			in++
		}
		if m.depth() != 3 {
			t.Fatalf("depth %d after a burst of 3", m.depth())
		}
		for i := 0; i < 3; i++ {
			take()
		}
	}
	if c := cap(m.queue); c > 8 {
		t.Fatalf("bursts of 3 that drain grew the queue to cap %d", c)
	}
	ev := procEvent{kind: pevMessage, msg: 0}
	if allocs := testing.AllocsPerRun(100, func() { m.put(ev); m.take() }); allocs != 0 {
		t.Fatalf("put+take on a drained mailbox: %v allocs", allocs)
	}

	// A backlog of ~100 that never drains, through 100,000 events.
	m, next, in = newMailbox(), 0, 0
	for ; in < 100; in++ {
		put(in)
	}
	for ; in < 100000; in++ {
		put(in)
		take()
	}
	if m.depth() != 100 {
		t.Fatalf("depth %d, want the standing backlog of 100", m.depth())
	}
	if c := cap(m.queue); c > 1024 {
		t.Fatalf("a standing backlog of 100 grew the queue to cap %d", c)
	}
	for m.depth() > 0 {
		take()
	}
	m.close()
	if _, ok := m.take(); ok {
		t.Fatal("take on a closed, drained mailbox returned an event")
	}
}
