class A {
    int f(int[] xs) {
        int n = 0;
        n += xs.length;
        return n;
    }

    static int g(int[] xs) {
        int n = 0;
        n += xs.length;
        return n * 2;
    }
}
