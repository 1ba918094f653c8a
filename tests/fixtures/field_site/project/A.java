class A {
    int n;

    int f(int n, int[] xs) {
        n += xs.length;
        return n;
    }

    int g(int[] xs) {
        n += xs.length;
        return n;
    }
}
