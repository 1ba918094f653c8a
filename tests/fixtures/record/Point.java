public record Point(int x, int y) {
    public Point {
        if (x < 0) {
            throw new IllegalArgumentException("x");
        }
    }

    public int manhattan() {
        return Math.abs(x) + Math.abs(y);
    }

    static Point origin() {
        return new Point(0, 0);
    }

    record Pair<T>(T left, T right) {
        T first() {
            return left;
        }
    }
}
