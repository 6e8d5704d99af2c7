package clock_test

import (
	"fmt"

	"repro/internal/clock"
)

// Vector clocks detect whether two events are ordered or concurrent.
func ExampleVector_Compare() {
	var a, b, c clock.Vector
	a = a.With("alice", 1) // alice writes
	b = b.Merge(a)         // bob observes alice's write ...
	b = b.With("bob", 1)   // ... then writes

	fmt.Println(a.Compare(b)) // alice's event precedes bob's

	c = c.With("carol", 1) // carol writes without observing anyone
	fmt.Println(a.Compare(c))
	// Output:
	// before
	// concurrent
}

// Dotted version vectors supersede exactly what a writer read: a write
// echoing its read context replaces the siblings it observed, while a
// blind write coexists with them.
func ExampleSiblings() {
	var s clock.Siblings[string]

	// Two blind writes through different coordinators: siblings.
	s.Add(clock.MintDVV("n1", nil, 0), "first")
	s.Add(clock.MintDVV("n2", nil, 0), "second")
	fmt.Println("siblings:", s.Len())

	// A writer that read both supersedes both.
	s.Add(clock.MintDVV("n1", s.Context(), 1), "resolved")
	fmt.Println("after contextual write:", s.Len(), s.Values())
	// Output:
	// siblings: 2
	// after contextual write: 1 [resolved]
}

// HLC timestamps order causally related events correctly even when the
// receiver's physical clock lags the sender's.
func ExampleHLC() {
	sendTime := int64(500)
	recvTime := int64(100) // receiver's wall clock is far behind
	sender := clock.NewHLC("sender", func() int64 { return sendTime })
	receiver := clock.NewHLC("receiver", func() int64 { return recvTime })

	sent := sender.Now()
	received := receiver.Observe(sent)
	fmt.Println(sent.Before(received))
	// Output: true
}
