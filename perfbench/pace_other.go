//go:build !linux

package main

// pacer sleeps the open-loop generator until each event's due time.
// Outside Linux it falls back to time.Sleep.
type pacer struct{}

func newPacer() pacer { return pacer{} }

func (pacer) stop() {}

func (pacer) until(t int64) { sleepUntil(t) }
