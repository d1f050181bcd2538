package osd

import (
	"testing"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// TestMapSelfDownForcesReboot pins the zombie-OSD defense: the monitor's
// failure detector can mark a live daemon down on a heartbeat stall
// without breaking its session, and nothing on the monitor re-admits a
// down OSD whose pings merely resume. The OSD must therefore treat a map
// that lists itself as down like a broken session — drop the conn and
// re-announce with MonBoot. The chaos harness caught the original bug as
// restarted daemons staying down forever during heal.
func TestMapSelfDownForcesReboot(t *testing.T) {
	tr := messenger.NewInProc()
	ln, err := tr.Listen("mon.zombie")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	encodeMap := func(epoch uint32, up bool) []byte {
		m := crush.NewMap(16, 1)
		m.Epoch = epoch
		m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: "osd.zombie", Up: up, Weight: 1}
		return m.Encode()
	}

	// Scripted monitor: every session answers the boot announce with an
	// "up" map; the FIRST session then immediately pushes a map marking
	// the OSD down, as the failure detector would.
	boots := make(chan int, 8)
	go func() {
		session := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			session++
			sess := session
			go func(c messenger.Conn) {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					switch m.(type) {
					case *wire.MonBoot:
						_ = c.Send(&wire.MonMap{MapBytes: encodeMap(uint32(sess*2), true)})
						select {
						case boots <- sess:
						default:
						}
						if sess == 1 {
							_ = c.Send(&wire.MonMap{MapBytes: encodeMap(uint32(sess*2+1), false)})
						}
					}
				}
			}(conn)
		}
	}()

	o, err := New(Config{
		ID:         0,
		Mode:       ModeProposed,
		Transport:  tr,
		ListenAddr: "osd.zombie",
		MonAddr:    "mon.zombie",
		Dev:        device.NewMem(256 << 20),
		Bank:       nvm.NewBank(64 << 20),
		Partitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })

	if sess := <-boots; sess != 1 {
		t.Fatalf("first announce on session %d, want 1", sess)
	}
	select {
	case sess := <-boots:
		if sess != 2 {
			t.Fatalf("re-announce on session %d, want a fresh session 2", sess)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OSD never re-announced after the map marked it down")
	}
}
