package dot15d4

// QueueCap is the MAC's transmit-queue bound, for the tests of the package's
// external test files.
const QueueCap = queueCap
