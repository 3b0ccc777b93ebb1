// Package ble is the Bluetooth Low Energy baseline the paper compares Wi-LE
// against. The paper models BLE's power, not its radio: Table 1's BLE
// column is the CC2541 connection-event integral from TI's application
// note swra347a (§5.4), and the data-rate comparison needs only the
// advertising payload limit.
package ble

// MaxAdvData is the longest AdvData payload (31 bytes) — one reason the
// paper notes Wi-LE "obtains data rates comparable with" BLE: a Wi-LE
// beacon carries ~8× more payload per transmission.
const MaxAdvData = 31
