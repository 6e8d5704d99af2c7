package quorum

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestRepeatOfAFailedPutIsTheSameWrite: a put that fails may have been
// applied all the same, and the application's repeat of it must
// supersede it, not stand beside it as a sibling. Both ways a put fails
// on the real actor runtime: the coordinator times out waiting for acks
// the replicas sent and the network dropped, and the client times out
// waiting for an answer the network dropped.
func TestRepeatOfAFailedPutIsTheSameWrite(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	for _, tc := range []struct {
		name    string
		cut     func(l *transport.Loopback)
		wantErr error
	}{
		{"coordinator times out", func(l *transport.Loopback) {
			for _, id := range ids {
				l.BlockLink(id, "s0") // every replicaPutAck, the coordinator's own included
			}
		}, ErrQuorumTimeout},
		{"client times out", func(l *transport.Loopback) { l.BlockLink("s0", "cli") }, ErrNoResponse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := transport.NewLoopback(transport.LoopbackConfig{Seed: 1})
			defer l.Close()
			for _, id := range ids {
				l.AddNode(id, NewNode(id, Config{Ring: ids, N: 3, R: 2, W: 2, Timeout: 100 * time.Millisecond}))
			}
			cli := NewClient("cli")
			cli.RequestTimeout = 300 * time.Millisecond
			l.AddNode("cli", cli)
			put := func(val string) error {
				done := make(chan error, 1)
				l.Invoke("cli", func(env transport.Env) {
					cli.Put(env, "s0", "k", []byte(val), func(r PutResult) { done <- r.Err })
				})
				return <-done
			}

			tc.cut(l)
			if err := put("first"); err == nil || err.Error() != tc.wantErr.Error() {
				t.Fatalf("first put: %v, want %v", err, tc.wantErr)
			}
			l.Heal()
			if err := put("again"); err != nil {
				t.Fatalf("repeat: %v", err)
			}
			got := make(chan GetResult, 1)
			l.Invoke("cli", func(env transport.Env) {
				cli.Get(env, "s0", "k", func(r GetResult) { got <- r })
			})
			r := <-got
			if r.Err != nil || len(r.Values) != 1 || string(r.Values[0]) != "again" {
				t.Fatalf("read back %q (err %v), want the repeat alone", values(r), r.Err)
			}
		})
	}
}
