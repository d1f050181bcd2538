package client_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebloc/internal/client"
	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// serve accepts connections on addr and runs handle on each received
// message until the listener closes.
func serve(t *testing.T, tr messenger.Transport, addr string, handle func(messenger.Conn, wire.Message)) {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					handle(conn, m)
				}
			}()
		}
	}()
}

// TestLateRepliesNeverReachAnotherOp drives the pooled reply waiter through
// the race it must survive: attempts time out while their replies are
// already on the way, the waiter goes back to the pool and is handed to
// another operation, and the late reply arrives. The stub OSD answers each
// write with the write's own offset as its version and holds replies for a
// random time around the client's request timeout, so every operation can
// tell its reply from anybody else's.
func TestLateRepliesNeverReachAnotherOp(t *testing.T) {
	const timeout = 2 * time.Millisecond
	tr := messenger.NewInProc()
	m := crush.NewMap(8, 1)
	m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: "osd0", Up: true, Weight: 1}
	serve(t, tr, "mon", func(conn messenger.Conn, msg wire.Message) {
		if _, ok := msg.(*wire.GetMap); ok {
			_ = conn.Send(&wire.MonMap{MapBytes: m.Encode()})
		}
	})
	var late atomic.Int64
	serve(t, tr, "osd0", func(conn messenger.Conn, msg wire.Message) {
		w, ok := msg.(*wire.ClientWrite)
		if !ok {
			return
		}
		reply := &wire.Reply{ReqID: w.ReqID, Status: wire.StatusOK, Version: w.Offset}
		hold := time.Duration(rand.Int63n(int64(2 * timeout)))
		if hold > timeout {
			late.Add(1)
		}
		time.AfterFunc(hold, func() { _ = conn.Send(reply) })
	})

	cl, err := client.New(tr, "mon", client.Options{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var token, timeouts, answered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := token.Add(1)
				v, err := cl.Write(wire.ObjectID{Pool: 1, Name: "o"}, k, nil)
				switch {
				case errors.Is(err, client.ErrTimeout):
					timeouts.Add(1)
				case err != nil:
					t.Errorf("write %d: %v", k, err)
					return
				case v != k:
					t.Errorf("write %d got the reply of write %d", k, v)
					return
				default:
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if timeouts.Load() == 0 || answered.Load() == 0 || late.Load() == 0 {
		t.Fatalf("race not exercised: %d timeouts, %d answered, %d late replies", timeouts.Load(), answered.Load(), late.Load())
	}
}
