//go:build !linux

package store

func madviseDontNeed(b []byte) {}
