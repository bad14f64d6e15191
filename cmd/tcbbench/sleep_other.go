//go:build !linux

package main

import "time"

// sleep pauses the pacer for d.
func sleep(d time.Duration) { time.Sleep(d) }
