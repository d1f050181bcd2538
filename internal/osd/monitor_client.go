package osd

import (
	"fmt"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// bootWithMonitor announces this OSD and installs the initial map.
func (o *OSD) bootWithMonitor() error {
	conn, cm, err := o.dialMonitor()
	if err != nil {
		return err
	}
	if !o.setMonConn(conn) {
		conn.Close()
		return nil
	}
	o.SetMap(cm)
	o.group.Go(func(stop <-chan struct{}) { o.monSession(conn, stop) })
	return nil
}

// dialMonitor performs the boot handshake: dial, announce, receive the
// current map.
func (o *OSD) dialMonitor() (messenger.Conn, *crush.Map, error) {
	conn, err := o.cfg.Transport.Dial(o.cfg.MonAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("osd %d: dial monitor: %w", o.cfg.ID, err)
	}
	if err := conn.Send(&wire.MonBoot{OSDID: o.cfg.ID, Addr: o.ln.Addr()}); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("osd %d: boot: %w", o.cfg.ID, err)
	}
	m, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("osd %d: boot reply: %w", o.cfg.ID, err)
	}
	mm, ok := m.(*wire.MonMap)
	if !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("osd %d: unexpected boot reply %s", o.cfg.ID, m.Type())
	}
	cm, err := crush.Decode(mm.MapBytes)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, cm, nil
}

// setMonConn installs the monitor connection unless the OSD is already
// stopping (a Kill/Close racing the dial must win, or the new conn leaks
// past the teardown's monConn close).
func (o *OSD) setMonConn(conn messenger.Conn) bool {
	o.monMu.Lock()
	defer o.monMu.Unlock()
	if o.closed.Load() {
		return false
	}
	o.monConn = conn
	return true
}

// monSession owns the monitor link for the OSD's lifetime: it consumes
// pushes until the conn breaks, then re-boots against the monitor with
// backoff. Without the rejoin a transient monitor-link failure leaves a
// zombie OSD — marked down, still serving its old map, never re-admitted.
func (o *OSD) monSession(conn messenger.Conn, stop <-chan struct{}) {
	for {
		o.monRecvLoop(conn, stop)
		select {
		case <-stop:
			return
		default:
		}
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			c, cm, err := o.dialMonitor()
			if err == nil {
				if !o.setMonConn(c) {
					c.Close()
					return
				}
				o.SetMap(cm)
				conn = c
				break
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
	}
}

// monRecvLoop consumes monitor pushes: map updates and pong replies.
func (o *OSD) monRecvLoop(conn messenger.Conn, stop <-chan struct{}) {
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		switch msg := m.(type) {
		case *wire.MonMap:
			if cm, err := crush.Decode(msg.MapBytes); err == nil {
				o.SetMap(cm)
				if info, ok := cm.OSDs[o.cfg.ID]; ok && !info.Up {
					// Failure detection can be wrong: a heartbeat stall
					// marks this daemon down while its monitor session
					// stays intact, and nothing on the monitor re-admits
					// a down OSD whose pings merely resume. Treat "the
					// map says I'm down" as a broken session — drop the
					// conn and re-boot; MonBoot re-admits this OSD and
					// the resulting map change re-syncs its PGs.
					conn.Close()
					return
				}
			}
		case *wire.Pong:
			if msg.Epoch > o.Epoch() {
				o.requestMapRefresh()
			}
		}
	}
}

// heartbeatInterval is the monitor ping cadence.
const heartbeatInterval = 250 * time.Millisecond

// heartbeatLoop pings the monitor so failure detection works.
func (o *OSD) heartbeatLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(heartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			o.monMu.Lock()
			conn := o.monConn
			o.monMu.Unlock()
			if conn == nil {
				continue
			}
			_ = conn.Send(&wire.Ping{OSDID: o.cfg.ID, Epoch: o.Epoch()})
		}
	}
}

// requestMapRefresh asks the monitor for the latest map (async; the
// MonMap lands in monRecvLoop). Coalesces concurrent requests.
func (o *OSD) requestMapRefresh() {
	if !o.refreshing.CompareAndSwap(false, true) {
		return
	}
	defer o.refreshing.Store(false)
	o.monMu.Lock()
	conn := o.monConn
	o.monMu.Unlock()
	if conn == nil {
		return
	}
	_ = conn.Send(&wire.GetMap{})
}
