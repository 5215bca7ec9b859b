//go:build !linux

package main

func isTmpfs(string) bool { return false }
